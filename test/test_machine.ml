(* Tests for machine description: configuration, address mapping,
   schedules, stats and the event heap. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default

let test_config_default () =
  check_int "36 cores" 36 (Machine.Config.num_cores cfg);
  check_int "4 MCs" 4 (Machine.Config.num_mcs cfg);
  check_int "9 regions" 9 (Machine.Config.num_regions cfg);
  check_int "3x3 region grid" 3 (Machine.Config.region_rows cfg);
  check_int "data flits" 3 (Machine.Config.data_flits cfg);
  check_bool "valid" true (Machine.Config.validate cfg = Ok ())

let test_config_validate_errors () =
  let bad = { cfg with Machine.Config.region_h = 4 } in
  check_bool "regions must tile" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false);
  let bad = { cfg with Machine.Config.l1_size = 1000 } in
  check_bool "cache geometry" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false);
  let bad = { cfg with Machine.Config.iter_set_fraction = 0. } in
  check_bool "fraction bounds" true
    (match Machine.Config.validate bad with
    | Error _ -> true
    | Ok () -> false)

(* ------------------------------------------------------------------ *)

let pt () = Mem.Page_table.create ~page_size:cfg.page_size ()

let test_addr_map_default () =
  let am = Machine.Addr_map.create cfg (pt ()) in
  check_int "page rr mc 0" 0 (Machine.Addr_map.mc_of am 100);
  check_int "page rr mc 2" 2 (Machine.Addr_map.mc_of am (2 * 2048));
  check_int "page rr wraps" 1 (Machine.Addr_map.mc_of am (5 * 2048));
  check_int "line rr bank" 3 (Machine.Addr_map.bank_node_of am (3 * 64));
  check_int "line rr wraps" 0 (Machine.Addr_map.bank_node_of am (36 * 64));
  check_int "mc node 0 is corner" 0 (Machine.Addr_map.mc_node am 0);
  check_int "translate identity" 777 (Machine.Addr_map.translate am 777)

let test_addr_map_quadrants () =
  let am = Machine.Addr_map.create cfg (pt ()) in
  check_int "NW" 0 (Machine.Addr_map.quadrant_of_node am 0);
  check_int "NE" 1 (Machine.Addr_map.quadrant_of_node am 5);
  check_int "SW" 2 (Machine.Addr_map.quadrant_of_node am 30);
  check_int "SE" 3 (Machine.Addr_map.quadrant_of_node am 35);
  (* Corner MCs align with their quadrants. *)
  for q = 0 to 3 do
    check_int (Printf.sprintf "mc of quadrant %d" q) q
      (Machine.Addr_map.mc_of_quadrant am q)
  done

let test_addr_map_knl_modes () =
  let with_cluster c =
    Machine.Addr_map.create
      { cfg with Machine.Config.dist = { cfg.Machine.Config.dist with cluster = c } }
      (pt ())
  in
  let am_q = with_cluster Mem.Distribution.Quadrant in
  (* Quadrant mode: the MC is the one of the bank's quadrant. *)
  for k = 0 to 200 do
    let pa = k * 64 in
    let bank = Machine.Addr_map.bank_node_of am_q pa in
    check_int "quadrant mode ties mc to bank quadrant"
      (Machine.Addr_map.mc_of_quadrant am_q
         (Machine.Addr_map.quadrant_of_node am_q bank))
      (Machine.Addr_map.mc_of am_q pa)
  done;
  let am_s = with_cluster Mem.Distribution.Snc4 in
  (* SNC-4: bank and MC share the page's domain. *)
  for k = 0 to 200 do
    let pa = k * 2048 in
    let d = k mod 4 in
    check_int "snc4 mc from domain"
      (Machine.Addr_map.mc_of_quadrant am_s d)
      (Machine.Addr_map.mc_of am_s pa);
    check_int "snc4 bank inside domain" d
      (Machine.Addr_map.quadrant_of_node am_s
         (Machine.Addr_map.bank_node_of am_s pa))
  done;
  let am_a = with_cluster Mem.Distribution.All_to_all in
  check_bool "all-to-all in range" true
    (List.for_all
       (fun k ->
         let mc = Machine.Addr_map.mc_of am_a (k * 2048) in
         mc >= 0 && mc < 4)
       (List.init 100 Fun.id))

let test_addr_map_translate_remap () =
  let table = pt () in
  Mem.Page_table.remap_page table ~vpage:0 ~ppage:9;
  let am = Machine.Addr_map.create cfg table in
  check_int "remapped" ((9 * 2048) + 5) (Machine.Addr_map.translate am 5);
  check_int "mc follows physical page" 1
    (Machine.Addr_map.mc_of am (Machine.Addr_map.translate am 5))

(* ------------------------------------------------------------------ *)

let sets_of n =
  Ir.Iter_set.partition_nest ~iterations:n ~nest:0 ~fraction:0.01

let test_schedule_round_robin () =
  let sets = sets_of 1000 in
  let s = Machine.Schedule.round_robin ~num_cores:36 sets in
  check_bool "valid" true (Machine.Schedule.validate s ~num_cores:36 = Ok ());
  check_int "first set on core 0" 0 s.core_of.(0);
  check_int "37th set wraps" 0 s.core_of.(36);
  let loads = Machine.Schedule.load_of_cores s ~num_cores:36 in
  let mn = Array.fold_left min max_int loads and mx = Array.fold_left max 0 loads in
  check_bool "balanced" true (mx - mn <= 10)

let test_schedule_restricted_cores () =
  let sets = sets_of 100 in
  let s = Machine.Schedule.round_robin ~cores:[| 3; 7 |] ~num_cores:36 sets in
  check_bool "only chosen cores" true
    (Array.for_all (fun c -> c = 3 || c = 7) s.core_of)

let test_schedule_sets_of_core_nest () =
  let sets = sets_of 100 in
  let s = Machine.Schedule.round_robin ~num_cores:4 sets in
  let mine = Machine.Schedule.sets_of_core_nest s ~core:1 ~nest:0 in
  check_bool "ordered by iteration" true
    (let rec mono = function
       | (a : Ir.Iter_set.t) :: (b : Ir.Iter_set.t) :: tl ->
           a.lo < b.lo && mono (b :: tl)
       | _ -> true
     in
     mono mine)

let test_schedule_moved_fraction () =
  let sets = sets_of 100 in
  let a = Machine.Schedule.round_robin ~num_cores:4 sets in
  let b = Machine.Schedule.make ~sets ~core_of:(Array.map (fun c -> (c + 1) mod 4) a.core_of) in
  Alcotest.(check (float 1e-9)) "all moved" 1.0 (Machine.Schedule.moved_fraction ~before:a ~after:b);
  Alcotest.(check (float 1e-9)) "none moved" 0.0 (Machine.Schedule.moved_fraction ~before:a ~after:a)

let test_schedule_validate_errors () =
  let sets = sets_of 10 in
  let s = Machine.Schedule.make ~sets ~core_of:(Array.make (Array.length sets) 99) in
  check_bool "out of range rejected" true
    (match Machine.Schedule.validate s ~num_cores:36 with
    | Error _ -> true
    | Ok () -> false)

(* ------------------------------------------------------------------ *)

let test_event_heap_ordering () =
  let h = Des.Event_heap.create ~capacity:2 in
  List.iter
    (fun (t, id) -> Des.Event_heap.push h ~time:t ~id)
    [ (5, 0); (1, 1); (9, 2); (1, 3); (0, 4) ];
  check_int "size" 5 (Des.Event_heap.size h);
  check_bool "peek" true (Des.Event_heap.peek_time h = Some 0);
  let times = ref [] in
  let rec drain () =
    match Des.Event_heap.pop h with
    | Some (t, _) ->
        times := t :: !times;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 5; 9 ] (List.rev !times);
  check_bool "empty" true (Des.Event_heap.is_empty h)

let qcheck_heap_sorted =
  QCheck.Test.make ~name:"heap pops in non-decreasing time order" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 10_000))
    (fun times ->
      let h = Des.Event_heap.create ~capacity:4 in
      List.iteri (fun id t -> Des.Event_heap.push h ~time:t ~id) times;
      let rec drain last =
        match Des.Event_heap.pop h with
        | None -> true
        | Some (t, _) -> t >= last && drain t
      in
      drain min_int)

(* ------------------------------------------------------------------ *)

let test_stats_ratios () =
  let s = Machine.Stats.create () in
  s.Machine.Stats.l1_hits <- 3;
  s.Machine.Stats.l1_misses <- 1;
  s.Machine.Stats.llc_hits <- 1;
  s.Machine.Stats.llc_misses <- 1;
  s.Machine.Stats.accesses <- 4;
  Alcotest.(check (float 1e-9)) "l1 rate" 0.75 (Machine.Stats.l1_hit_rate s);
  Alcotest.(check (float 1e-9)) "llc rate" 0.5 (Machine.Stats.llc_hit_rate s);
  Alcotest.(check (float 1e-9)) "miss ratio" 0.25 (Machine.Stats.llc_miss_ratio s);
  Alcotest.(check (float 1e-9)) "zero-safe" 0. (Machine.Stats.avg_net_latency s)

let () =
  Alcotest.run "machine"
    [
      ( "config",
        [
          Alcotest.test_case "defaults (Table 4)" `Quick test_config_default;
          Alcotest.test_case "validation" `Quick test_config_validate_errors;
        ] );
      ( "addr_map",
        [
          Alcotest.test_case "default interleaving" `Quick test_addr_map_default;
          Alcotest.test_case "quadrants" `Quick test_addr_map_quadrants;
          Alcotest.test_case "KNL modes" `Quick test_addr_map_knl_modes;
          Alcotest.test_case "translate remap" `Quick test_addr_map_translate_remap;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "round robin" `Quick test_schedule_round_robin;
          Alcotest.test_case "core subset" `Quick test_schedule_restricted_cores;
          Alcotest.test_case "per-nest ordering" `Quick test_schedule_sets_of_core_nest;
          Alcotest.test_case "moved fraction" `Quick test_schedule_moved_fraction;
          Alcotest.test_case "validation" `Quick test_schedule_validate_errors;
        ] );
      ( "event_heap",
        [
          Alcotest.test_case "ordering" `Quick test_event_heap_ordering;
          QCheck_alcotest.to_alcotest qcheck_heap_sorted;
        ] );
      ("stats", [ Alcotest.test_case "ratios" `Quick test_stats_ratios ]);
    ]
