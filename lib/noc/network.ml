type t = {
  topo : Topology.t;
  router_overhead : int;
  ideal : bool;
  nodes : int;
  route_start : int array;
      (** pair [src * nodes + dst]: its links are
          [route_links.(route_start.(pair) .. route_start.(pair + 1) - 1)] *)
  route_links : int array;
  free_at : int array;  (** per directed link: first cycle it is free *)
  busy : int array;  (** per directed link: cumulative occupancy cycles *)
  lat_hist : int array;  (** per-packet latency histogram, log2 buckets *)
  mutable total_latency : int;
  mutable total_queueing : int;
  mutable packets : int;
  mutable hops : int;
}

(* Every (src, dst) route, flattened in [Routing.iter_path] order, so
   [send] walks an int array instead of re-deriving the X-Y path with a
   division and a modulo per hop through a callback. *)
let route_table topo =
  let n = Topology.num_nodes topo in
  let start = Array.make ((n * n) + 1) 0 in
  for pair = 0 to (n * n) - 1 do
    start.(pair + 1) <-
      start.(pair) + Routing.hop_count topo ~src:(pair / n) ~dst:(pair mod n)
  done;
  let links = Array.make start.(n * n) 0 in
  for pair = 0 to (n * n) - 1 do
    let k = ref start.(pair) in
    Routing.iter_path topo ~src:(pair / n) ~dst:(pair mod n) (fun link ->
        links.(!k) <- link;
        incr k)
  done;
  (start, links)

let create ?(ideal = false) ~router_overhead topo =
  if router_overhead < 0 then
    invalid_arg "Network.create: negative router overhead";
  let route_start, route_links = route_table topo in
  {
    topo;
    router_overhead;
    ideal;
    nodes = Topology.num_nodes topo;
    route_start;
    route_links;
    free_at = Array.make (Routing.num_links topo) 0;
    busy = Array.make (Routing.num_links topo) 0;
    lat_hist = Array.make 24 0;
    total_latency = 0;
    total_queueing = 0;
    packets = 0;
    hops = 0;
  }

let topology t = t.topo
let is_ideal t = t.ideal

let send t ~now ~src ~dst ~flits =
  if flits <= 0 then invalid_arg "Network.send: non-positive flit count";
  if src < 0 || src >= t.nodes || dst < 0 || dst >= t.nodes then
    invalid_arg "Network.send: node out of range";
  if t.ideal || src = dst then now
  else begin
    let pair = (src * t.nodes) + dst in
    let first = Array.unsafe_get t.route_start pair
    and stop = Array.unsafe_get t.route_start (pair + 1) in
    let free_at = t.free_at and busy = t.busy in
    let time = ref now in
    let queue = ref 0 in
    for k = first to stop - 1 do
      let link = Array.unsafe_get t.route_links k in
      let free = Array.unsafe_get free_at link in
      let start =
        if free > !time then begin
          queue := !queue + (free - !time);
          free
        end
        else !time
      in
      Array.unsafe_set free_at link (start + flits);
      Array.unsafe_set busy link (Array.unsafe_get busy link + flits);
      time := start + t.router_overhead + 1
    done;
    (* Tail flits arrive [flits - 1] cycles after the head. *)
    let arrival = !time + flits - 1 in
    let lat = arrival - now in
    let bucket =
      let rec go b v = if v <= 1 || b = 23 then b else go (b + 1) (v / 2) in
      go 0 lat
    in
    t.lat_hist.(bucket) <- t.lat_hist.(bucket) + 1;
    t.total_latency <- t.total_latency + lat;
    t.total_queueing <- t.total_queueing + !queue;
    t.packets <- t.packets + 1;
    t.hops <- t.hops + (stop - first);
    arrival
  end

let latency_histogram t = Array.copy t.lat_hist

let link_busy t = Array.copy t.busy

let reset t =
  Array.fill t.free_at 0 (Array.length t.free_at) 0;
  Array.fill t.busy 0 (Array.length t.busy) 0;
  Array.fill t.lat_hist 0 (Array.length t.lat_hist) 0;
  t.total_latency <- 0;
  t.total_queueing <- 0;
  t.packets <- 0;
  t.hops <- 0

let total_latency t = t.total_latency
let total_queueing t = t.total_queueing
let packets_sent t = t.packets
let total_hops t = t.hops

let avg_latency t =
  if t.packets = 0 then 0. else float_of_int t.total_latency /. float_of_int t.packets
