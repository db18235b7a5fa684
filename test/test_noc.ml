(* Tests for the NoC substrate: coordinates, topology, X-Y routing,
   packets and the contention-aware network. *)

let coord = Noc.Coord.make

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)

let test_coord_manhattan () =
  check_int "same point" 0
    (Noc.Coord.manhattan (coord ~row:2 ~col:3) (coord ~row:2 ~col:3));
  check_int "corner to corner" 10
    (Noc.Coord.manhattan (coord ~row:0 ~col:0) (coord ~row:5 ~col:5));
  check_int "symmetric" 7
    (Noc.Coord.manhattan (coord ~row:4 ~col:0) (coord ~row:0 ~col:3))

let test_coord_invalid () =
  Alcotest.check_raises "negative row" (Invalid_argument "Coord.make: negative component")
    (fun () -> ignore (coord ~row:(-1) ~col:0))

let test_coord_compare () =
  let a = coord ~row:1 ~col:2 and b = coord ~row:1 ~col:3 in
  check_bool "equal self" true (Noc.Coord.equal a a);
  check_bool "not equal" false (Noc.Coord.equal a b);
  check_bool "ordered" true (Noc.Coord.compare a b < 0);
  check_bool "row dominates" true
    (Noc.Coord.compare (coord ~row:0 ~col:9) (coord ~row:1 ~col:0) < 0)

(* ------------------------------------------------------------------ *)

let topo66 = Noc.Topology.create ~rows:6 ~cols:6 Noc.Topology.Corners

let test_topology_basic () =
  check_int "nodes" 36 (Noc.Topology.num_nodes topo66);
  check_int "mcs" 4 (Noc.Topology.num_mcs topo66);
  check_int "node of (2,3)" 15
    (Noc.Topology.node_of_coord topo66 (coord ~row:2 ~col:3));
  check_bool "coord roundtrip" true
    (Noc.Coord.equal
       (Noc.Topology.coord_of_node topo66 15)
       (coord ~row:2 ~col:3))

let test_topology_corners () =
  let expect = [ (0, 0); (0, 5); (5, 0); (5, 5) ] in
  List.iteri
    (fun k (r, c) ->
      check_bool
        (Printf.sprintf "MC %d position" k)
        true
        (Noc.Coord.equal (Noc.Topology.mc_coord topo66 k) (coord ~row:r ~col:c)))
    expect

let test_topology_midpoints () =
  let t = Noc.Topology.create ~rows:6 ~cols:6 Noc.Topology.Edge_midpoints in
  check_int "mcs" 4 (Noc.Topology.num_mcs t);
  check_bool "first at top middle" true
    (Noc.Coord.equal (Noc.Topology.mc_coord t 0) (coord ~row:0 ~col:3))

let test_topology_custom () =
  let t =
    Noc.Topology.create ~rows:4 ~cols:4
      (Noc.Topology.Custom [ coord ~row:1 ~col:1; coord ~row:2 ~col:2 ])
  in
  check_int "mcs" 2 (Noc.Topology.num_mcs t);
  check_int "mc node" 5 (Noc.Topology.mc_node t 0)

let test_topology_errors () =
  Alcotest.check_raises "zero rows"
    (Invalid_argument "Topology.create: non-positive dimension") (fun () ->
      ignore (Noc.Topology.create ~rows:0 ~cols:6 Noc.Topology.Corners));
  Alcotest.check_raises "mc outside mesh"
    (Invalid_argument "Topology.create: MC outside mesh") (fun () ->
      ignore
        (Noc.Topology.create ~rows:2 ~cols:2
           (Noc.Topology.Custom [ coord ~row:5 ~col:0 ])));
  Alcotest.check_raises "empty custom"
    (Invalid_argument "Topology.create: empty MC placement") (fun () ->
      ignore (Noc.Topology.create ~rows:2 ~cols:2 (Noc.Topology.Custom [])))

let test_distance_to_mc () =
  check_int "center to corner" 5
    (Noc.Topology.distance_to_mc topo66 (coord ~row:2 ~col:3) 0)

(* ------------------------------------------------------------------ *)

let test_routing_path_props () =
  (* Paths are X-first, adjacent-hop chains of the right length. *)
  let check_pair src dst =
    let hops = Noc.Routing.hop_count topo66 ~src ~dst in
    let path = Noc.Routing.path topo66 ~src ~dst in
    check_int
      (Printf.sprintf "hops %d->%d" src dst)
      hops (List.length path);
    let m =
      Noc.Coord.manhattan
        (Noc.Topology.coord_of_node topo66 src)
        (Noc.Topology.coord_of_node topo66 dst)
    in
    check_int "hop count = manhattan" m hops
  in
  check_pair 0 35;
  check_pair 35 0;
  check_pair 7 7;
  check_pair 5 30

let test_routing_xy_order () =
  (* From (0,0) to (2,2): two East links first, then two South links. *)
  let path = Noc.Routing.path topo66 ~src:0 ~dst:14 in
  let dirs = List.map (fun l -> l mod 4) path in
  Alcotest.(check (list int))
    "X then Y"
    [
      Noc.Routing.direction_index Noc.Routing.East;
      Noc.Routing.direction_index Noc.Routing.East;
      Noc.Routing.direction_index Noc.Routing.South;
      Noc.Routing.direction_index Noc.Routing.South;
    ]
    dirs

let test_routing_empty_path () =
  Alcotest.(check (list int)) "self route" [] (Noc.Routing.path topo66 ~src:9 ~dst:9)

let qcheck_routing_length =
  QCheck.Test.make ~name:"routing path length equals manhattan distance"
    ~count:200
    QCheck.(pair (int_bound 35) (int_bound 35))
    (fun (src, dst) ->
      Noc.Routing.hop_count topo66 ~src ~dst
      = List.length (Noc.Routing.path topo66 ~src ~dst))

(* ------------------------------------------------------------------ *)

let test_packet_flits () =
  check_int "request" 1
    (Noc.Packet.flits Noc.Packet.Request ~line_size:64 ~flit_bytes:16);
  check_int "data 64/16" 5
    (Noc.Packet.flits Noc.Packet.Data ~line_size:64 ~flit_bytes:16);
  check_int "writeback rounds up" 3
    (Noc.Packet.flits Noc.Packet.Writeback ~line_size:33 ~flit_bytes:32)

(* ------------------------------------------------------------------ *)

let test_network_idle_latency () =
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  (* 10 hops, 1 flit: 10 * (3 + 1) = 40 cycles, no tail. *)
  check_int "single flit corner to corner" 40
    (Noc.Network.send net ~now:0 ~src:0 ~dst:35 ~flits:1);
  check_int "no queueing when idle path differs" 0
    (Noc.Network.total_queueing net)

let test_network_tail_flits () =
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  (* 1 hop, 5 flits: 4 + 4 tail cycles. *)
  check_int "tail flits" 8 (Noc.Network.send net ~now:0 ~src:0 ~dst:1 ~flits:5)

let test_network_queueing () =
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  let a1 = Noc.Network.send net ~now:0 ~src:0 ~dst:1 ~flits:5 in
  let a2 = Noc.Network.send net ~now:0 ~src:0 ~dst:1 ~flits:5 in
  check_bool "second packet queues" true (a2 > a1);
  check_int "queueing recorded" 5 (Noc.Network.total_queueing net)

let test_network_ideal () =
  let net = Noc.Network.create ~ideal:true ~router_overhead:3 topo66 in
  check_int "ideal is free" 17 (Noc.Network.send net ~now:17 ~src:0 ~dst:35 ~flits:5);
  check_int "no packets recorded" 0 (Noc.Network.packets_sent net)

let test_network_self_send () =
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  check_int "src = dst is free" 9 (Noc.Network.send net ~now:9 ~src:4 ~dst:4 ~flits:3)

let test_network_stats_and_reset () =
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  ignore (Noc.Network.send net ~now:0 ~src:0 ~dst:35 ~flits:1);
  check_int "hops" 10 (Noc.Network.total_hops net);
  check_int "packets" 1 (Noc.Network.packets_sent net);
  check_bool "avg latency positive" true (Noc.Network.avg_latency net > 0.);
  let hist = Noc.Network.latency_histogram net in
  check_int "one packet in histogram" 1 (Array.fold_left ( + ) 0 hist);
  Noc.Network.reset net;
  check_int "reset clears packets" 0 (Noc.Network.packets_sent net);
  check_int "reset clears latency" 0 (Noc.Network.total_latency net)

let qcheck_network_monotonic =
  QCheck.Test.make ~name:"network arrival is never before injection" ~count:200
    QCheck.(triple (int_bound 35) (int_bound 35) (int_range 1 8))
    (fun (src, dst, flits) ->
      let net = Noc.Network.create ~router_overhead:3 topo66 in
      Noc.Network.send net ~now:100 ~src ~dst ~flits >= 100)

(* Test-local reference for [Network.send]: the per-packet walk over
   [Routing.iter_path] that the network's route table replaces. *)
type ref_net = { r_free : int array; r_busy : int array; mutable r_queue : int }

let ref_send topo r ~now ~src ~dst ~flits =
  if src = dst then now
  else begin
    let time = ref now in
    Noc.Routing.iter_path topo ~src ~dst (fun link ->
        let start =
          if r.r_free.(link) > !time then begin
            r.r_queue <- r.r_queue + (r.r_free.(link) - !time);
            r.r_free.(link)
          end
          else !time
        in
        r.r_free.(link) <- start + flits;
        r.r_busy.(link) <- r.r_busy.(link) + flits;
        time := start + 3 + 1);
    !time + flits - 1
  end

let test_route_table () =
  (* The network's precomputed routes are Routing.iter_path's, for
     every (src, dst) pair, on meshes and on tori where the shorter way
     around wraps, including non-square ones. Alone on a fresh network
     a packet occupies exactly its path's links; under contention, where
     the order of the links decides who waits, every arrival and every
     queueing cycle matches a walk over iter_path. *)
  List.iter
    (fun (kind, rows, cols) ->
      let topo =
        Noc.Topology.create ~kind ~rows ~cols Noc.Topology.Corners
      in
      let name =
        Printf.sprintf "%s %dx%d"
          (if kind = Noc.Topology.Torus then "torus" else "mesh")
          rows cols
      in
      let net = Noc.Network.create ~router_overhead:3 topo in
      let n = Noc.Topology.num_nodes topo in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          Noc.Network.reset net;
          ignore (Noc.Network.send net ~now:0 ~src ~dst ~flits:1);
          let used = ref [] in
          Array.iteri
            (fun l b -> if b > 0 then used := l :: !used)
            (Noc.Network.link_busy net);
          let pair = Printf.sprintf "%s %d->%d" name src dst in
          Alcotest.(check (list int)) (pair ^ " links")
            (List.sort compare (Noc.Routing.path topo ~src ~dst))
            (List.rev !used);
          check_int (pair ^ " hops") (Noc.Routing.hop_count topo ~src ~dst)
            (Noc.Network.total_hops net)
        done
      done;
      Noc.Network.reset net;
      let links = Noc.Routing.num_links topo in
      let r =
        { r_free = Array.make links 0; r_busy = Array.make links 0; r_queue = 0 }
      in
      let rng = Random.State.make [| rows; cols |] in
      let now = ref 0 in
      for i = 1 to 3000 do
        now := !now + Random.State.int rng 3;
        let src = Random.State.int rng n and dst = Random.State.int rng n in
        let flits = 1 + Random.State.int rng 4 in
        check_int
          (Printf.sprintf "%s packet %d arrival" name i)
          (ref_send topo r ~now:!now ~src ~dst ~flits)
          (Noc.Network.send net ~now:!now ~src ~dst ~flits)
      done;
      check_int (name ^ " queueing") r.r_queue (Noc.Network.total_queueing net);
      Alcotest.(check (array int)) (name ^ " link busy") r.r_busy
        (Noc.Network.link_busy net))
    [
      (Noc.Topology.Mesh, 6, 6); (Noc.Topology.Mesh, 3, 5);
      (Noc.Topology.Torus, 3, 5); (Noc.Topology.Torus, 5, 3);
      (Noc.Topology.Torus, 4, 4); (Noc.Topology.Mesh, 1, 1);
    ];
  let net = Noc.Network.create ~router_overhead:3 topo66 in
  check_bool "out-of-range node rejected" true
    (try
       ignore (Noc.Network.send net ~now:0 ~src:0 ~dst:36 ~flits:1);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "noc"
    [
      ( "coord",
        [
          Alcotest.test_case "manhattan" `Quick test_coord_manhattan;
          Alcotest.test_case "invalid" `Quick test_coord_invalid;
          Alcotest.test_case "compare" `Quick test_coord_compare;
        ] );
      ( "topology",
        [
          Alcotest.test_case "basic" `Quick test_topology_basic;
          Alcotest.test_case "corners" `Quick test_topology_corners;
          Alcotest.test_case "midpoints" `Quick test_topology_midpoints;
          Alcotest.test_case "custom" `Quick test_topology_custom;
          Alcotest.test_case "errors" `Quick test_topology_errors;
          Alcotest.test_case "distance to MC" `Quick test_distance_to_mc;
        ] );
      ( "routing",
        [
          Alcotest.test_case "path properties" `Quick test_routing_path_props;
          Alcotest.test_case "x-y order" `Quick test_routing_xy_order;
          Alcotest.test_case "self" `Quick test_routing_empty_path;
          QCheck_alcotest.to_alcotest qcheck_routing_length;
        ] );
      ("packet", [ Alcotest.test_case "flits" `Quick test_packet_flits ]);
      ( "network",
        [
          Alcotest.test_case "idle latency" `Quick test_network_idle_latency;
          Alcotest.test_case "tail flits" `Quick test_network_tail_flits;
          Alcotest.test_case "queueing" `Quick test_network_queueing;
          Alcotest.test_case "ideal" `Quick test_network_ideal;
          Alcotest.test_case "self send" `Quick test_network_self_send;
          Alcotest.test_case "stats and reset" `Quick test_network_stats_and_reset;
          Alcotest.test_case "route table = iter_path" `Quick test_route_table;
          QCheck_alcotest.to_alcotest qcheck_network_monotonic;
        ] );
    ]
