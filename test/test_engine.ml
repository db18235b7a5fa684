(* Tests for the discrete-event simulator. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Machine.Config.default
let shared_cfg = { cfg with Machine.Config.llc_org = Cache.Llc.Shared }

let arr name length = { Ir.Program.name; elem_size = 8; length }
let i_ = Ir.Affine.var "i"

let vadd ?(n = 4096) ?(time_steps = 1) () =
  Ir.Program.create ~name:"vadd" ~kind:Ir.Program.Regular
    ~arrays:[ arr "a" n; arr "b" n ]
    ~time_steps
    [
      Ir.Loop_nest.make ~name:"v" ~compute_cycles:8
        ~par:(Ir.Loop_nest.loop "i" ~hi:n)
        [
          Ir.Access.read "a" (Ir.Access.direct i_);
          Ir.Access.write "b" (Ir.Access.direct i_);
        ];
    ]

let run ?(cfg = cfg) ?ideal_network prog =
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let schedule =
    Machine.Schedule.round_robin ~num_cores:(Machine.Config.num_cores cfg) sets
  in
  Machine.Engine.run_single ?ideal_network cfg ~trace ~schedule ()

let test_counts_all_accesses () =
  let prog = vadd ~n:4096 ~time_steps:2 () in
  let r = run prog in
  check_int "every access simulated" (2 * 2 * 4096) r.stats.Machine.Stats.accesses;
  check_bool "took time" true (r.stats.Machine.Stats.cycles > 0);
  check_int "hits + misses = accesses"
    r.stats.Machine.Stats.accesses
    (r.stats.Machine.Stats.l1_hits + r.stats.Machine.Stats.l1_misses)

let test_ideal_network_is_faster () =
  let prog = vadd () in
  let real = run prog in
  let ideal = run ~ideal_network:true prog in
  check_bool "ideal at least as fast" true
    (ideal.stats.Machine.Stats.cycles <= real.stats.Machine.Stats.cycles);
  check_int "ideal has no packets" 0 ideal.stats.Machine.Stats.net_packets;
  check_bool "real sends packets" true (real.stats.Machine.Stats.net_packets > 0)

let test_determinism () =
  let prog = vadd () in
  let a = run prog and b = run prog in
  check_int "identical cycles" a.stats.Machine.Stats.cycles b.stats.Machine.Stats.cycles;
  check_int "identical net latency" a.stats.Machine.Stats.net_latency
    b.stats.Machine.Stats.net_latency

let test_shared_traffic_exceeds_private () =
  let prog = vadd () in
  let p = run prog in
  let s = run ~cfg:shared_cfg prog in
  (* In S-NUCA every L1 miss crosses the network. *)
  check_bool "more packets under shared LLC" true
    (s.stats.Machine.Stats.net_packets > p.stats.Machine.Stats.net_packets)

let test_warm_caches_across_steps () =
  (* A small LLC-resident program re-run by a timing loop misses mostly
     in step 0. *)
  let one = run (vadd ~n:2048 ~time_steps:1 ()) in
  let two = run (vadd ~n:2048 ~time_steps:2 ()) in
  check_bool "second step adds few LLC misses" true
    (two.stats.Machine.Stats.llc_misses
    < (2 * one.stats.Machine.Stats.llc_misses * 3 / 4))

let test_step_overhead_charged () =
  let prog = vadd ~time_steps:2 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let schedule = Machine.Schedule.round_robin ~num_cores:36 sets in
  let base =
    Machine.Engine.run cfg
      [ Machine.Engine.job ~trace ~schedule_of_step:(fun _ -> schedule) () ]
  in
  let with_overhead =
    Machine.Engine.run cfg
      [
        Machine.Engine.job ~trace
          ~schedule_of_step:(fun _ -> schedule)
          ~step_overhead:(fun step -> if step = 0 then 5000 else 0)
          ();
      ]
  in
  check_int "overhead recorded" 5000
    with_overhead.stats.Machine.Stats.overhead_cycles;
  check_int "overhead delays completion"
    (base.stats.Machine.Stats.cycles + 5000)
    with_overhead.stats.Machine.Stats.cycles

let test_multiprogrammed_jobs () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let half1 = Array.init 18 Fun.id in
  let half2 = Array.init 18 (fun k -> 18 + k) in
  let job cores =
    Machine.Engine.job ~cores ~trace
      ~schedule_of_step:(fun _ ->
        Machine.Schedule.round_robin ~cores ~num_cores:36 sets)
      ()
  in
  let r = Machine.Engine.run cfg [ job half1; job half2 ] in
  check_int "two finish times" 2 (Array.length r.job_finish);
  check_bool "both finish" true (Array.for_all (fun t -> t > 0) r.job_finish)

let test_overlapping_jobs_rejected () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let cores = [| 0; 1 |] in
  let job () =
    Machine.Engine.job ~cores ~trace
      ~schedule_of_step:(fun _ ->
        Machine.Schedule.round_robin ~cores ~num_cores:36 sets)
      ()
  in
  check_bool "overlap rejected" true
    (try
       ignore (Machine.Engine.run cfg [ job (); job () ]);
       false
     with Invalid_argument _ -> true)

let test_schedule_outside_job_cores_rejected () =
  let prog = vadd ~n:2048 () in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.01 in
  let job =
    Machine.Engine.job ~cores:[| 0; 1 |] ~trace
      ~schedule_of_step:(fun _ ->
        (* Schedule names all 36 cores but the job only owns two. *)
        Machine.Schedule.round_robin ~num_cores:36 sets)
      ()
  in
  check_bool "rejected" true
    (try
       ignore (Machine.Engine.run cfg [ job ]);
       false
     with Invalid_argument _ -> true)

let test_localised_beats_scattered () =
  (* All accesses land on MC0's pages (every fourth 256-element page):
     running on the core next to MC0 must beat the far corner. *)
  let pages = 32 in
  let prog =
    Ir.Program.create ~name:"mc0" ~kind:Ir.Program.Regular
      ~arrays:[ arr "a" (pages * 1024) ]
      [
        Ir.Loop_nest.make ~name:"v" ~compute_cycles:4
          ~par:(Ir.Loop_nest.loop "i" ~hi:pages)
          ~inner:[ Ir.Loop_nest.loop "j" ~hi:256 ]
          [
            Ir.Access.read "a"
              (Ir.Access.direct
                 Ir.Affine.(add (var ~coeff:1024 "i") (var "j")));
          ];
      ]
  in
  let layout = Ir.Layout.allocate ~page_size:cfg.Machine.Config.page_size prog in
  let trace = Ir.Trace.create prog layout in
  let sets = Ir.Iter_set.partition prog ~fraction:0.25 in
  let at core =
    Machine.Schedule.make ~sets
      ~core_of:(Array.make (Array.length sets) core)
  in
  let near = Machine.Engine.run_single cfg ~trace ~schedule:(at 0) () in
  let far = Machine.Engine.run_single cfg ~trace ~schedule:(at 35) () in
  check_bool "near-MC placement has lower network latency" true
    (near.stats.Machine.Stats.net_latency < far.stats.Machine.Stats.net_latency)


(* Golden simulator statistics: every [Machine.Stats] field for four
   registry kernels x {private, shared} LLC x {Default, Location_aware}
   at scale 0.1, recorded before the allocation-free hot path (event
   heap hole sift, int-array deferred events, tag-first cache lookup,
   route table, scratch iteration fill) replaced the original one. The
   rewrite claims the same event order, so every field must stay
   bit-identical; a change in tie order among equal-time events shows
   here first as a cycles or net_queueing difference. Field order is
   that of [stats_fields]. *)
let stats_fields (s : Machine.Stats.t) =
  Machine.Stats.
    [|
      s.cycles; s.overhead_cycles; s.accesses; s.l1_hits; s.l1_misses;
      s.llc_hits; s.llc_misses; s.net_latency; s.net_queueing; s.net_packets;
      s.net_hops; s.dram_row_hits; s.dram_row_misses; s.writebacks;
    |]

let stats_field_names =
  [|
    "cycles"; "overhead_cycles"; "accesses"; "l1_hits"; "l1_misses";
    "llc_hits"; "llc_misses"; "net_latency"; "net_queueing"; "net_packets";
    "net_hops"; "dram_row_hits"; "dram_row_misses"; "writebacks";
  |]

let golden =
  [
    ("fft", "private", "default", [| 119581; 0; 184320; 134316; 50004; 21960; 28044; 1280948; 107844; 54544; 279640; 27305; 739; 0 |]);
    ("fft", "private", "la", [| 106377; 668; 184320; 135092; 49228; 21976; 27252; 719032; 58032; 49256; 152936; 26075; 1177; 0 |]);
    ("fft", "shared", "default", [| 149041; 0; 184320; 134316; 50004; 36180; 13824; 2806763; 337819; 136900; 579806; 13343; 481; 13184 |]);
    ("fft", "shared", "la", [| 125691; 668; 184320; 134920; 49400; 35576; 13824; 2045563; 264299; 126636; 410752; 13368; 456; 13158 |]);
    ("lulesh", "private", "default", [| 118316; 0; 239616; 197144; 42472; 18032; 24440; 1095020; 76732; 47472; 242704; 24087; 353; 0 |]);
    ("lulesh", "private", "la", [| 102979; 668; 239616; 200694; 38922; 17536; 21386; 474276; 16768; 38132; 104844; 20571; 815; 0 |]);
    ("lulesh", "shared", "default", [| 138324; 0; 239616; 197144; 42472; 33246; 9226; 2085897; 201613; 105632; 443391; 8936; 290; 5231 |]);
    ("lulesh", "shared", "la", [| 115525; 668; 239616; 198722; 40894; 31668; 9226; 1418024; 143172; 94918; 293882; 8936; 290; 5084 |]);
    ("barnes", "private", "default", [| 303973; 0; 286720; 231832; 54888; 11744; 43144; 1923374; 113742; 83872; 431440; 43024; 120; 0 |]);
    ("barnes", "private", "la", [| 274203; 6972; 286720; 233078; 53642; 12353; 41289; 1864135; 106423; 80360; 419338; 41169; 120; 0 |]);
    ("barnes", "shared", "default", [| 189229; 0; 286720; 231832; 54888; 51048; 3840; 2353943; 184543; 125058; 508363; 3720; 120; 11201 |]);
    ("barnes", "shared", "la", [| 195875; 6972; 286720; 232371; 54349; 50509; 3840; 2359051; 184631; 124336; 509799; 3720; 120; 11121 |]);
    ("radix", "private", "default", [| 805587; 0; 368640; 127312; 241328; 41056; 200272; 9184642; 771706; 391388; 2004928; 200170; 1992; 1890 |]);
    ("radix", "private", "la", [| 674530; 7238; 368640; 142873; 225767; 45949; 179818; 7571091; 682429; 347676; 1634673; 177823; 4580; 2585 |]);
    ("radix", "shared", "default", [| 512258; 0; 368640; 127312; 241328; 213680; 27648; 13255451; 1870459; 647452; 2653174; 26784; 864; 128561 |]);
    ("radix", "shared", "la", [| 498745; 7238; 368640; 135810; 232830; 205182; 27648; 12272564; 1782026; 622617; 2436301; 26784; 864; 126781 |]);
  ]

let test_golden_stats () =
  Harness.Experiment.clear_cache ();
  let prepared = Hashtbl.create 4 in
  List.iter
    (fun (kernel, llc, strategy, expected) ->
      let p =
        match Hashtbl.find_opt prepared kernel with
        | Some p -> p
        | None ->
            let p = Harness.Experiment.prepare_name ~scale:0.1 kernel in
            Hashtbl.add prepared kernel p;
            p
      in
      let c =
        if llc = "shared" then shared_cfg else cfg
      in
      let strat =
        if strategy = "la" then Harness.Experiment.Location_aware
        else Harness.Experiment.Default
      in
      let got = stats_fields (Harness.Experiment.run c p strat).stats in
      Array.iteri
        (fun i name ->
          check_int
            (Printf.sprintf "%s %s %s %s" kernel llc strategy name)
            expected.(i) got.(i))
        stats_field_names)
    golden;
  Harness.Experiment.clear_cache ()

let () =
  Alcotest.run "engine"
    [
      ( "basics",
        [
          Alcotest.test_case "access accounting" `Quick test_counts_all_accesses;
          Alcotest.test_case "ideal network" `Quick test_ideal_network_is_faster;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "shared traffic" `Quick test_shared_traffic_exceeds_private;
          Alcotest.test_case "warm caches" `Quick test_warm_caches_across_steps;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "step overhead" `Quick test_step_overhead_charged;
          Alcotest.test_case "multiprogrammed" `Quick test_multiprogrammed_jobs;
          Alcotest.test_case "overlap rejected" `Quick test_overlapping_jobs_rejected;
          Alcotest.test_case "foreign cores rejected" `Quick
            test_schedule_outside_job_cores_rejected;
        ] );
      ( "physics",
        [
          Alcotest.test_case "distance matters" `Quick test_localised_beats_scattered;
        ] );
      ( "golden",
        [ Alcotest.test_case "stats of 4 kernels x llc x strategy" `Quick test_golden_stats ] );
    ]
