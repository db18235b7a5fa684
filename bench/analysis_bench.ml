(* Analysis fast-path benchmark: summary construction per registry
   workload, sequential seed path vs the tiered fast path at
   1/2/4/8 domains.

     dune exec bench/analysis_bench.exe                # or: make bench-analysis
     dune exec bench/analysis_bench.exe -- --smoke     # CI bit-rot gate

   For every workload the bench times
     - the *seed* CME path: a faithful reimplementation of the
       pre-fast-path code (per-access closure via [Trace.iter_range],
       direct [Addr_map] translate/bank/MC calls, one streamed
       predictor) — the baseline the speedup targets are against;
     - [Analysis.cme_summaries] at each domain count (1 = no pool),
       with the symbolic tier on (the default);
     - the seed and fast observed paths, sequential by design (the
       replay threads shared cache state through the whole trace).

   It also records per-tier coverage (how many accesses the
   symbolic/periodic/traced CME tiers resolved) and enforces the
   observed-path regression gate: the fast replay must not be slower
   than the seed replay on any workload (with a noise margin), or the
   bench exits non-zero — in CI this runs as the --smoke gate.

   Results go to BENCH_analysis.json, including the geomean CME speedup
   of the 8-domain fast path over the seed sequential path. *)

let scale = ref 0.35
let domain_counts = ref [ 1; 2; 4; 8 ]
let smoke = ref false
let out_file = ref "BENCH_analysis.json"
let llc = ref Cache.Llc.Shared
let only = ref []

let usage =
  "analysis_bench.exe [--scale S] [--domains 1,2,4,8] [--llc private|shared] \
   [--out FILE] [--smoke]"

let args =
  [
    ( "--scale",
      Arg.Set_float scale,
      "S workload input-size scale (default 0.35)" );
    ( "--domains",
      Arg.String
        (fun s ->
          domain_counts := String.split_on_char ',' s |> List.map int_of_string),
      "LIST domain counts (default 1,2,4,8)" );
    ( "--llc",
      Arg.String
        (fun s ->
          llc :=
            match s with
            | "private" -> Cache.Llc.Private
            | "shared" -> Cache.Llc.Shared
            | _ -> raise (Arg.Bad ("unknown llc organisation " ^ s))),
      "ORG llc organisation (default shared — exercises region lookups)" );
    ("--out", Arg.Set_string out_file, "FILE output path (default BENCH_analysis.json)");
    ( "--only",
      Arg.String
        (fun s -> only := String.split_on_char ',' s),
      "LIST restrict to these workloads (comma-separated)" );
    ( "--smoke",
      Arg.Unit
        (fun () ->
          smoke := true;
          scale := 0.1;
          domain_counts := [ 1; 2 ];
          (* Keep the committed full-run artifact out of smoke's way:
             a CI smoke run must not dirty BENCH_analysis.json. *)
          if !out_file = "BENCH_analysis.json" then
            out_file := "BENCH_analysis_smoke.json"),
      " quick CI variant: 3 workloads, scale 0.1, domains 1,2" );
  ]

(* Best of [repeat] runs: each path is deterministic, so the minimum is
   the cleanest estimate of its cost on a noisy shared machine. The
   observed paths use more repeats — they are the ones a regression
   gate compares, and small workloads finish in single-digit
   milliseconds where scheduler noise dominates a single run. *)
let time ?(repeat = 3) f =
  let once () =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let r, ms0 = once () in
  let best = ref ms0 in
  for _ = 2 to repeat do
    let _, ms = once () in
    if ms < !best then best := ms
  done;
  (r, !best)

(* Time two deterministic paths in alternation: back-to-back runs see
   the same machine conditions (core placement, frequency), so their
   minima stay comparable even when the absolute numbers wander — on
   millisecond-scale workloads, timing the paths in separate blocks can
   put them in different scheduling regimes entirely. The observed
   regression gate compares these. *)
let time2 ?(repeat = 5) f g =
  let once h =
    let t0 = Unix.gettimeofday () in
    let r = h () in
    (r, (Unix.gettimeofday () -. t0) *. 1000.)
  in
  let rf, msf0 = once f in
  let rg, msg0 = once g in
  let bf = ref msf0 and bg = ref msg0 in
  for _ = 2 to repeat do
    let _, msf = once f in
    if msf < !bf then bf := msf;
    let _, msg = once g in
    if msg < !bg then bg := msg
  done;
  (rf, !bf, rg, !bg)

(* The seed implementation of [cme_summaries], kept verbatim-in-spirit
   so the speedup is measured against what the tree actually shipped:
   closure-per-access expansion and direct address-map calls. *)
let seed_cme_summaries (cfg : Machine.Config.t) amap trace ~sets =
  let prog = Ir.Trace.program trace in
  let layout = Ir.Trace.layout trace in
  let regions = Locmap.Region.create cfg in
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let summaries =
    Array.init (Array.length sets) (fun _ ->
        Locmap.Summary.create
          ~num_mcs:(Machine.Addr_map.num_mcs amap)
          ~num_regions:(Machine.Config.num_regions cfg))
  in
  let predictor = ref None in
  let current_nest = ref (-1) in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      if s.nest <> !current_nest then begin
        current_nest := s.nest;
        predictor := Some (Cme.create cfg prog layout ~nest:s.nest)
      end;
      let p = Option.get !predictor in
      let sm = summaries.(k) in
      Ir.Trace.iter_range ~step:0 trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
        (fun ~addr ~write:_ ->
          let pa = Machine.Addr_map.translate amap addr in
          match Cme.classify p with
          | Cme.L1_hit -> Locmap.Summary.add_l1_hit sm
          | Cme.Llc_hit ->
              let region =
                if shared then
                  Locmap.Region.of_node regions
                    (Machine.Addr_map.bank_node_of amap pa)
                else 0
              in
              Locmap.Summary.add_llc_hit sm ~region
          | Cme.Llc_miss ->
              let bank_region =
                if shared then
                  Locmap.Region.of_node regions
                    (Machine.Addr_map.bank_node_of amap pa)
                else -1
              in
              Locmap.Summary.add_llc_miss sm ~bank_region
                ~mc:(Machine.Addr_map.mc_of amap pa)))
    sets;
  summaries

(* Seed observed path, same vintage: closure expansion, per-access
   translate and bank lookups against the address map. *)
let seed_observed_summaries (cfg : Machine.Config.t) amap trace ~sets =
  let regions = Locmap.Region.create cfg in
  let shared = Cache.Llc.equal cfg.llc_org Cache.Llc.Shared in
  let l1 =
    Cache.Sa_cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc
      ~line_size:cfg.l1_line ()
  in
  let banks =
    if shared then
      Array.init (Machine.Config.num_cores cfg) (fun _ ->
          Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
            ~line_size:cfg.l2_line ())
    else
      [|
        Cache.Sa_cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc
          ~line_size:cfg.l2_line ();
      |]
  in
  let summaries =
    Array.init (Array.length sets) (fun _ ->
        Locmap.Summary.create
          ~num_mcs:(Machine.Addr_map.num_mcs amap)
          ~num_regions:(Machine.Config.num_regions cfg))
  in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      let sm = summaries.(k) in
      Ir.Trace.iter_range ~step:0 trace ~nest:s.nest ~lo:s.lo ~hi:s.hi
        (fun ~addr ~write ->
          let pa = Machine.Addr_map.translate amap addr in
          match Cache.Sa_cache.access l1 ~addr:pa ~write with
          | Cache.Sa_cache.Hit -> Locmap.Summary.add_l1_hit sm
          | Cache.Sa_cache.Miss _ -> (
              let bank_node, bank =
                if shared then
                  let b = Machine.Addr_map.bank_node_of amap pa in
                  (b, banks.(b))
                else (0, banks.(0))
              in
              match Cache.Sa_cache.access bank ~addr:pa ~write with
              | Cache.Sa_cache.Hit ->
                  let region =
                    if shared then Locmap.Region.of_node regions bank_node
                    else 0
                  in
                  Locmap.Summary.add_llc_hit sm ~region
              | Cache.Sa_cache.Miss _ ->
                  let bank_region =
                    if shared then Locmap.Region.of_node regions bank_node
                    else -1
                  in
                  Locmap.Summary.add_llc_miss sm ~bank_region
                    ~mc:(Machine.Addr_map.mc_of amap pa))))
    sets;
  summaries

let total_accesses trace sets =
  Array.fold_left
    (fun acc (s : Ir.Iter_set.t) ->
      acc
      + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
    0 sets

let summaries_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Locmap.Summary.t) (y : Locmap.Summary.t) ->
         x.mc_counts = y.mc_counts
         && x.region_counts = y.region_counts
         && x.miss_region_counts = y.miss_region_counts
         && x.llc_hits = y.llc_hits
         && x.llc_misses = y.llc_misses
         && x.l1_hits = y.l1_hits)
       a b

(* Memo work gate, on a deterministic counter rather than wall time:
   a structured address map's location table holds one period, so the
   lines [Line_memo.create] evaluates must not grow with the workload's
   scale (checked against the same workload's full-scale layout) and
   must stay within 2^16. *)
let check_memo_work (cfg : Machine.Config.t) amap name memo =
  let lines = Locmap.Line_memo.lines_evaluated memo in
  let full =
    let prog = (Workloads.Registry.find name).program ~scale:1.0 () in
    Locmap.Line_memo.lines_evaluated
      (Locmap.Line_memo.create cfg amap
         (Ir.Layout.allocate ~page_size:cfg.page_size prog))
  in
  if lines <> full then begin
    Printf.eprintf
      "FATAL: %s: line memo evaluated %d lines at scale %.2f but %d at \
       scale 1.0\n"
      name lines !scale full;
    exit 1
  end;
  if Machine.Addr_map.period_lines amap <> None && lines > 1 lsl 16 then begin
    Printf.eprintf
      "FATAL: %s: line memo evaluated %d lines on a structured map (> 2^16)\n"
      name lines;
    exit 1
  end

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names =
    if !only <> [] then !only
    else if !smoke then [ "mxm"; "jacobi-3d"; "barnes" ]
    else Workloads.Registry.names
  in
  let cfg = { Machine.Config.default with llc_org = !llc } in
  let pools =
    List.map
      (fun d -> (d, Par.Pool.create ~num_domains:(if d <= 1 then 0 else d) ()))
      !domain_counts
  in
  Printf.printf "analysis bench: scale %.2f, llc %s, %d workloads\n%!" !scale
    (match !llc with Cache.Llc.Private -> "private" | _ -> "shared")
    (List.length names);
  Printf.printf "%-12s %9s | %9s %s | %9s %9s\n" "workload" "accesses"
    "cme-seed"
    (String.concat " "
       (List.map (fun d -> Printf.sprintf "cme-%dd" d) !domain_counts))
    "obs-seed" "obs-fast";
  let rows =
    List.map
      (fun name ->
        let p = Harness.Experiment.prepare_name ~scale:!scale name in
        let trace = p.Harness.Experiment.trace in
        let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
        let amap = Machine.Addr_map.create cfg pt in
        let sets =
          Ir.Iter_set.partition p.Harness.Experiment.prog
            ~fraction:cfg.iter_set_fraction
        in
        let accesses = total_accesses trace sets in
        let memo = Locmap.Line_memo.create cfg amap (Ir.Trace.layout trace) in
        check_memo_work cfg amap name memo;
        (* Tier coverage, counted once with instrumentation on (the
           timed runs below stay uninstrumented). *)
        let tiers =
          let im = Obs.Metrics.create () in
          ignore
            (Locmap.Analysis.cme_summaries ~memo ~metrics:im cfg amap trace
               ~sets);
          let v n = Obs.Metrics.counter_value (Obs.Metrics.counter im n) in
          ( v "locmap_cme_tier_symbolic_accesses_total",
            v "locmap_cme_tier_periodic_accesses_total",
            v "locmap_cme_tier_traced_accesses_total" )
        in
        let seed_sum, cme_seed_ms =
          time (fun () -> seed_cme_summaries cfg amap trace ~sets)
        in
        (* The PR-4 fast path, measured in-run: the same code with the
           symbolic tier disabled falls back to the periodic/traced
           walkers, which is exactly what shipped before the symbolic
           tier. Sequential, so the comparison against the 1-domain
           symbolic time isolates the algorithmic win from pool
           scaling. *)
        let pr4_sum, cme_pr4_ms =
          time (fun () ->
              Locmap.Analysis.cme_summaries ~memo ~symbolic:false cfg amap
                trace ~sets)
        in
        if not (summaries_equal seed_sum pr4_sum) then begin
          Printf.eprintf
            "FATAL: %s: symbolic-off CME summaries differ from seed\n" name;
          exit 1
        end;
        let cme_ms =
          List.map
            (fun (d, pool) ->
              let fast, ms =
                time (fun () ->
                    Locmap.Analysis.cme_summaries ~pool ~memo cfg amap trace
                      ~sets)
              in
              if not (summaries_equal seed_sum fast) then begin
                Printf.eprintf
                  "FATAL: %s: %d-domain fast CME summaries differ from seed\n"
                  name d;
                exit 1
              end;
              (d, ms))
            pools
        in
        let seed_obs, obs_seed_ms, fast_obs, obs_fast_ms =
          time2 ~repeat:5
            (fun () -> seed_observed_summaries cfg amap trace ~sets)
            (fun () ->
              fst
                (Locmap.Analysis.observed_summaries ~warm_pass:false ~memo cfg
                   amap trace ~sets))
        in
        if not (summaries_equal seed_obs fast_obs) then begin
          Printf.eprintf
            "FATAL: %s: fast observed summaries differ from seed\n" name;
          exit 1
        end;
        Printf.printf "%-12s %9d | %8.1fms %s | %8.1fms %8.1fms\n%!" name
          accesses cme_seed_ms
          (String.concat " "
             (List.map (fun (_, ms) -> Printf.sprintf "%7.1fms" ms) cme_ms))
          obs_seed_ms obs_fast_ms;
        (name, p.Harness.Experiment.entry.Workloads.Registry.kind, accesses,
         Array.length sets, cme_seed_ms, cme_pr4_ms, cme_ms, obs_seed_ms,
         obs_fast_ms, tiers))
      names
  in
  List.iter (fun (_, pool) -> Par.Pool.shutdown pool) pools;
  let max_domains = List.fold_left max 1 !domain_counts in
  let speedup_at_max (_, _, _, _, seed_ms, _, cme_ms, _, _, _) =
    seed_ms /. List.assoc max_domains cme_ms
  in
  let geomean =
    let logs = List.map (fun r -> log (speedup_at_max r)) rows in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
  in
  Printf.printf
    "geomean cme_summaries speedup (%d domains vs seed sequential): %.2fx\n"
    max_domains geomean;
  (* Symbolic-tier win in isolation: regular workloads only (100%
     symbolic coverage), sequential 1-domain symbolic time vs the
     in-run PR-4 walker time, so neither cross-run machine drift nor
     pool scaling pollutes the ratio. *)
  let geomean_regular_vs_pr4 =
    let logs =
      List.filter_map
        (fun (_, kind, _, _, _, pr4_ms, cme_ms, _, _, _) ->
          match (kind, List.assoc_opt 1 cme_ms) with
          | Ir.Program.Regular, Some ms1 -> Some (log (pr4_ms /. ms1))
          | _ -> None)
        rows
    in
    if logs = [] then 1.0
    else exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
  in
  Printf.printf
    "geomean symbolic-vs-pr4 speedup (regular workloads, 1 domain): %.2fx\n"
    geomean_regular_vs_pr4;
  (* Observed-path regression gate: the fast replay does strictly less
     work per access than the seed replay, so it must not measure
     slower — a relative margin plus a 1 ms absolute allowance absorbs
     timer noise on workloads that finish in single-digit
     milliseconds. *)
  let obs_margin = if !smoke then 1.5 else 1.15 in
  let regressions =
    List.filter
      (fun (_, _, _, _, _, _, _, obs_seed_ms, obs_fast_ms, _) ->
        obs_fast_ms > (obs_seed_ms *. obs_margin) +. 1.0)
      rows
  in
  if regressions <> [] then begin
    List.iter
      (fun (name, _, _, _, _, _, _, obs_seed_ms, obs_fast_ms, _) ->
        Printf.eprintf
          "FATAL: %s: observed fast path %.1fms slower than seed %.1fms \
           (margin %.2fx)\n"
          name obs_fast_ms obs_seed_ms obs_margin)
      regressions;
    exit 1
  end;
  let json =
    Service.Json.Obj
      [
        ("scale", Service.Json.Float !scale);
        ( "llc",
          Service.Json.String
            (match !llc with Cache.Llc.Private -> "private" | _ -> "shared")
        );
        ( "domains",
          Service.Json.List
            (List.map (fun d -> Service.Json.Int d) !domain_counts) );
        ("smoke", Service.Json.Bool !smoke);
        ( "workloads",
          Service.Json.List
            (List.map
               (fun (name, kind, accesses, nsets, cme_seed_ms, cme_pr4_ms,
                     cme_ms, obs_seed_ms, obs_fast_ms, (t_sym, t_per, t_tr)) ->
                 Service.Json.Obj
                   [
                     ("name", Service.Json.String name);
                     ( "kind",
                       Service.Json.String
                         (match kind with
                         | Ir.Program.Regular -> "regular"
                         | Ir.Program.Irregular -> "irregular") );
                     ("accesses", Service.Json.Int accesses);
                     ("sets", Service.Json.Int nsets);
                     ("cme_seed_ms", Service.Json.Float cme_seed_ms);
                     ("cme_pr4_ms", Service.Json.Float cme_pr4_ms);
                     ( "cme_ms",
                       Service.Json.Obj
                         (List.map
                            (fun (d, ms) ->
                              (string_of_int d, Service.Json.Float ms))
                            cme_ms) );
                     ( "cme_speedup_max_domains",
                       Service.Json.Float
                         (cme_seed_ms /. List.assoc max_domains cme_ms) );
                     ("observed_seed_ms", Service.Json.Float obs_seed_ms);
                     ("observed_fast_ms", Service.Json.Float obs_fast_ms);
                     ( "tier_accesses",
                       Service.Json.Obj
                         [
                           ("symbolic", Service.Json.Int t_sym);
                           ("periodic", Service.Json.Int t_per);
                           ("traced", Service.Json.Int t_tr);
                         ] );
                   ])
               rows) );
        ("geomean_cme_speedup_max_domains_vs_seed", Service.Json.Float geomean);
        ( "geomean_regular_symbolic_vs_pr4_1d",
          Service.Json.Float geomean_regular_vs_pr4 );
      ]
  in
  let oc = open_out !out_file in
  output_string oc (Service.Json.to_string json);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n" !out_file
