(* The benchmark's inputs: every request and simulation case a workload
   can draw, and the committed reference outputs for each of them.

   A run draws its inputs from these finite universes with its seed, so
   one committed file per workload covers every seed. *)

(* Machine seeds per (kernel, LLC) pair on the map-* workloads. The
   seed only moves the random within-region core choice, so every
   request is distinct (the solution cache never answers) while the
   work per request stays that of its kernel. *)
let map_seeds = 32

(* serve-zipf: every kernel on both LLCs at two scales and 32 machine
   seeds — 2688 keys, five times the server's 512-entry cache. Requests
   ask for iteration sets of 1% of a nest (100 sets, not the default
   400), which makes a miss about 40% cheaper and shortens the queue
   it builds on its connection. *)
let serve_scales = [ 0.25; 0.5 ]
let serve_seeds = 32
let serve_fraction = 0.02

(* simulate: a fixed set of cheap-to-simulate kernels, half regular and
   half irregular, on both LLCs at this scale. *)
let sim_scale = 0.25

let sim_kernels =
  [ "fft"; "lulesh"; "diff"; "minighost"; "jacobi-3d"; "barnes"; "volrend";
    "equake"; "radix" ]

let request_line ?scale ?fraction ~kernel ~llc ~seed () =
  let opt name = function None -> "" | Some v -> Printf.sprintf {|"%s":%g,|} name v in
  Printf.sprintf
    {|{"workload":"%s",%s"machine":{"llc":"%s","seed":%d},"options":{%s"estimation":"auto","measure_error":false}}|}
    kernel (opt "scale" scale) (Util.llc_name llc) seed (opt "fraction" fraction)

let map_kernels = function
  | "map-regular" -> Workloads.Registry.regular
  | "map-irregular" -> Workloads.Registry.irregular
  | w -> invalid_arg ("not a map workload: " ^ w)

(* The (kernel, LLC) pairs of one map workload, in registry order. *)
let map_pairs workload =
  List.concat_map
    (fun (e : Workloads.Registry.entry) ->
      List.map (fun llc -> (e.name, llc)) Util.llcs)
    (map_kernels workload)

let map_universe workload =
  List.concat_map
    (fun seed ->
      List.map
        (fun (kernel, llc) -> request_line ~kernel ~llc ~seed ())
        (map_pairs workload))
    (List.init map_seeds (fun i -> i + 1))

let serve_universe () =
  List.concat_map
    (fun (e : Workloads.Registry.entry) ->
      List.concat_map
        (fun llc ->
          List.concat_map
            (fun scale ->
              List.init serve_seeds (fun i ->
                  request_line ~scale ~fraction:serve_fraction ~kernel:e.name ~llc
                    ~seed:(i + 1) ()))
            serve_scales)
        Util.llcs)
    Workloads.Registry.all
  |> Array.of_list

let sim_cases =
  List.concat_map
    (fun k -> List.map (fun llc -> (k, llc)) Util.llcs)
    sim_kernels

(* Socket responses number lines per connection; the committed digests
   are of the in-process encoding, whose id is 0. *)
let normalize_id response =
  let prefix = {|{"id":|} in
  let n = String.length prefix in
  if String.length response > n && String.sub response 0 n = prefix then
    match String.index_from_opt response n ',' with
    | Some i -> prefix ^ "0" ^ String.sub response i (String.length response - i)
    | None -> response
  else response

(* {1 Committed references} *)

let digests_file dir workload = Filename.concat dir (workload ^ ".digests")
let stats_file dir = Filename.concat dir "simulate.stats"

(* digest(request line) -> digest(response line). *)
let load_digests dir workload =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun l ->
      Scanf.sscanf l "%s %s" (fun req resp -> Hashtbl.replace t req resp))
    (Util.lines_of (digests_file dir workload));
  t

let stats_fields (s : Machine.Stats.t) =
  [ s.cycles; s.overhead_cycles; s.accesses; s.l1_hits; s.l1_misses;
    s.llc_hits; s.llc_misses; s.net_latency; s.net_queueing; s.net_packets;
    s.net_hops; s.dram_row_hits; s.dram_row_misses; s.writebacks ]

let stats_key ~kernel ~llc ~strategy =
  Printf.sprintf "%s %s %s" kernel (Util.llc_name llc) strategy

let stats_line s = String.concat " " (List.map string_of_int (stats_fields s))

(* "kernel llc strategy" -> the 14 counters of its Machine.Stats, as a
   space-separated line. *)
let load_stats dir =
  let t = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Scanf.sscanf l "%s %s %s %[^\n]" (fun k llc strat rest ->
          Hashtbl.replace t (Printf.sprintf "%s %s %s" k llc strat) rest))
    (Util.lines_of (stats_file dir));
  t
