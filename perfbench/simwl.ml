(* simulate: the paper's evaluation path on one domain. Each case maps
   and simulates one kernel on one LLC organisation under the Default
   and Location_aware strategies through Harness.Experiment.run, with
   its memo cleared first so nothing is reused across cases. *)

open Util

(* slo_pct limit per case (both simulations and the mapping). *)
let limit_ms = 5000.

let cfg llc = { Machine.Config.default with Machine.Config.llc_org = llc }

let kernels ~short =
  if short then List.filteri (fun i _ -> i < 2) Universe.sim_kernels
  else Universe.sim_kernels

let cases ~short =
  List.filter (fun (k, _) -> List.mem k (kernels ~short)) Universe.sim_cases

(* Set-up: trace preparation for every kernel and one warm-up case. *)
let setup ~short =
  let t0 = now_ns () in
  let prepared =
    List.map
      (fun k -> (k, Harness.Experiment.prepare_name ~scale:Universe.sim_scale k))
      (kernels ~short)
  in
  let p = snd (List.hd prepared) in
  Harness.Experiment.clear_cache ();
  ignore (Harness.Experiment.run (cfg Cache.Llc.Private) p Harness.Experiment.Default);
  ignore (Harness.Experiment.run (cfg Cache.Llc.Private) p Harness.Experiment.Location_aware);
  Harness.Experiment.clear_cache ();
  (prepared, s_since t0)

type result = {
  case : string * Cache.Llc.org;
  ms : float;
  default : Machine.Stats.t;
  la : Machine.Stats.t;
  info : Locmap.Mapper.info option;
}

(* Compares a case's statistics with the committed ones. *)
let matches expected r =
  let kernel, llc = r.case in
  let ok strategy s =
    Hashtbl.find_opt expected (Universe.stats_key ~kernel ~llc ~strategy)
    = Some (Universe.stats_line s)
  in
  let good = ok "default" r.default && ok "la" r.la in
  if not good then
    Printf.eprintf "mismatch: simulated stats of %s on %s LLC differ from the committed ones\n%!"
      kernel (llc_name llc);
  good

let run_case prepared (kernel, llc) =
  Harness.Experiment.clear_cache ();
  let p = List.assoc kernel prepared in
  let t0 = now_ns () in
  let d = Harness.Experiment.run (cfg llc) p Harness.Experiment.Default in
  let la = Harness.Experiment.run (cfg llc) p Harness.Experiment.Location_aware in
  let ms = ms_since t0 in
  { case = (kernel, llc); ms; default = d.stats; la = la.stats; info = la.info }

(* Passes over the case set, each in a seeded order, until [seconds]
   have passed and at least one pass is complete. Returns the complete
   passes, the cases of an interrupted last pass, and the time at which
   the last complete pass ended. Timings come from complete passes
   only, so every run measures the same mix of cases. *)
let passes rng ~short ~seconds run =
  let t0 = now_ns () in
  let complete = ref [] and tail = ref [] and wall = ref 0. in
  (try
     while true do
       List.iter
         (fun c ->
           if !complete <> [] && s_since t0 >= seconds then raise Exit;
           tail := run c :: !tail)
         (Array.to_list (shuffle rng (cases ~short)));
       complete := !tail :: !complete;
       tail := [];
       wall := s_since t0
     done
   with Exit -> ());
  (List.rev !complete, !tail, !wall)

let reduction f r = Harness.Experiment.reduction ~base:(f r.default) (f r.la)

let run ~seed ~seconds ~short ~expected : Outcome.t =
  let runs = List.init 3 (fun _ -> setup ~short) in
  let prepared, _ = List.nth runs 2 in
  let setup_s = median (Array.of_list (List.map snd runs)) in
  let rng = Random.State.make [| seed |] in
  let complete, tail, wall =
    passes rng ~short ~seconds:(if short then 0. else seconds) (run_case prepared)
  in
  let results = Array.of_list (List.concat complete) in
  let stats = Universe.load_stats expected in
  let bad =
    List.fold_left (fun k r -> if matches stats r then k else k + 1) 0
      (Array.to_list results @ tail)
  in
  let attempted = Array.length results + List.length tail in
  let n = Array.length results in
  let lat = Array.map (fun r -> r.ms) results in
  let within = Array.fold_left (fun k x -> if x < limit_ms then k + 1 else k) 0 lat in
  let accesses =
    Array.fold_left (fun acc r -> acc + r.default.accesses + r.la.accesses) 0 results
  in
  let pass = Array.of_list (List.hd complete) in
  Outcome.
    {
      correct = bad = 0;
      attempted;
      failed = bad;
      notes =
        [
          Printf.sprintf
            "simulate: %d complete passes of %d cases in %.2f s (%d more \
             cases checked, not timed); latency_p99_ms has %d samples beyond \
             it (fewer than 10: not resolved); slo limit %.0f ms; failed_pct \
             %.3f"
            (List.length complete) (Array.length pass) wall (List.length tail)
            (beyond n 0.99) limit_ms (pct bad attempted);
        ];
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", median lat);
          ("latency_p99_ms", percentile lat 0.99);
          ("throughput_rps", float_of_int n /. wall);
          ("slo_pct", pct within n);
          ("sim_kaccess_per_s", float_of_int accesses /. sum lat);
          ("exec_reduction_pct", mean (Array.map (reduction (fun s -> s.Machine.Stats.cycles)) pass));
          ( "net_latency_reduction_pct",
            mean (Array.map (reduction (fun s -> s.Machine.Stats.net_latency)) pass) );
          ("peak_rss_mb", vm_hwm_mb "self");
        ];
    }

(* {1 Traced run} *)

(* The Location_aware case through the layers directly (as
   Harness.Experiment computes it), one span per call under a root
   span per case. The committed statistics check that it reproduces
   Experiment.run. *)
let traced_case tr prepared index (kernel, llc) =
  let p = List.assoc kernel prepared in
  let trace = p.Harness.Experiment.trace in
  let cfg = cfg llc in
  let root = Obs.Trace.root tr ~trace_id:(Printf.sprintf "case%05d" index) "case" in
  let span name f = Obs.Trace.with_span tr ~parent:root name (fun _ -> f ()) in
  let t0 = now_ns () in
  let d =
    span "machine.engine" (fun () ->
        let schedule = Locmap.Mapper.default_schedule cfg trace in
        Machine.Engine.run_single cfg ~trace ~schedule ())
  in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let info =
    span "core.mapper.map" (fun () ->
        Locmap.Mapper.map ~measure_error:true ~page_table:pt cfg trace)
  in
  let la =
    span "machine.engine" (fun () ->
        Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ])
  in
  Obs.Trace.finish tr root;
  { case = (kernel, llc); ms = ms_since t0; default = d.stats; la = la.stats; info = Some info }

let totals pass =
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 pass in
  let side name get =
    let s f = sum (fun r -> f (get r)) in
    let open Machine.Stats in
    [
      ("machine.cycles." ^ name, float_of_int (s (fun x -> x.cycles)));
      ("noc.packets." ^ name, float_of_int (s (fun x -> x.net_packets)));
      ( "noc.avg_latency_cycles." ^ name,
        float_of_int (s (fun x -> x.net_latency)) /. float_of_int (max 1 (s (fun x -> x.net_packets))) );
      ("noc.queueing_pct." ^ name, pct (s (fun x -> x.net_queueing)) (s (fun x -> x.net_latency)));
      ("cache.l1_hit_pct." ^ name, pct (s (fun x -> x.l1_hits)) (s (fun x -> x.l1_hits + x.l1_misses)));
      ("cache.llc_hit_pct." ^ name, pct (s (fun x -> x.llc_hits)) (s (fun x -> x.llc_hits + x.llc_misses)));
      ( "mem.dram_row_hit_pct." ^ name,
        pct (s (fun x -> x.dram_row_hits)) (s (fun x -> x.dram_row_hits + x.dram_row_misses)) );
    ]
  in
  [ ("machine.accesses", float_of_int (sum (fun r -> r.default.accesses + r.la.accesses))) ]
  @ side "default" (fun r -> r.default)
  @ side "la" (fun r -> r.la)

let run_traced ~seed ~seconds ~short ~expected ~out_dir : Outcome.t =
  let tr = Obs.Trace.create () in
  let prepared =
    List.map
      (fun k ->
        ( k,
          Obs.Trace.with_span tr ~trace_id:("prep-" ^ k) "harness.prepare" (fun _ ->
              Harness.Experiment.prepare_name ~scale:Universe.sim_scale k) ))
      (kernels ~short)
  in
  let rng = Random.State.make [| seed |] in
  let half = if short then 0. else seconds /. 2. in
  let all (complete, tail, _) = Array.of_list (List.concat complete @ tail) in
  let plain = all (passes rng ~short ~seconds:half (run_case prepared)) in
  let index = ref 0 in
  let traced_passes =
    passes rng ~short ~seconds:half (fun c ->
        incr index;
        traced_case tr prepared !index c)
  in
  let traced = all traced_passes in
  let complete, _, _ = traced_passes in
  let spans =
    Spans.write_and_parse tr
      (Filename.concat out_dir (Printf.sprintf "simulate-seed%d.trace.jsonl" seed))
  in
  let stats = Universe.load_stats expected in
  let all = Array.append plain traced in
  let failed = Array.fold_left (fun k r -> if matches stats r then k else k + 1) 0 all in
  let cases = Spans.by_root spans "case" in
  let pass = Array.of_list (List.hd complete) in
  let engine_ms =
    List.concat_map (fun t -> List.filter_map (fun (n, ms) -> if n = "machine.engine" then Some ms else None) t.Spans.children) cases
  in
  let traced_accesses = Array.fold_left (fun acc r -> acc + r.default.accesses + r.la.accesses) 0 traced in
  let errors f =
    mean (Array.of_list (List.filter_map (fun r -> Option.map f r.info) (Array.to_list pass)))
  in
  let min_coverage =
    List.fold_left (fun acc c -> Float.min acc (Spans.coverage c)) 100. cases
  in
  let case_ms = Array.of_list (List.map (fun t -> t.Spans.root_ms) cases) in
  let plain_ms = median (Array.map (fun r -> r.ms) plain) in
  let prep_ms =
    Array.of_list (List.filter_map (fun s -> if s.Spans.name = "harness.prepare" then Some s.Spans.ms else None) spans)
  in
  Outcome.
    {
      correct = failed = 0;
      attempted = Array.length all;
      failed;
      notes =
        [
          Printf.sprintf "simulate traced: %d untraced + %d traced cases; lowest span coverage %.2f%%"
            (Array.length plain) (Array.length traced) min_coverage;
        ];
      metrics =
        [
          ("machine.engine.sim_ms", median (Array.of_list engine_ms));
          ( "machine.engine.ns_per_access",
            1e6 *. List.fold_left ( +. ) 0. engine_ms /. float_of_int (max 1 traced_accesses) );
          ("harness.prepare_ms", median prep_ms);
          ("core.mapper.map_ms", Spans.median_child cases "core.mapper.map");
          ("core.analysis.mai_error", errors (fun i -> i.Locmap.Mapper.mai_error));
          ("core.analysis.cai_error", errors (fun i -> i.Locmap.Mapper.cai_error));
          ("obs.trace_overhead_pct", 100. *. (median case_ms -. plain_ms) /. plain_ms);
          ("obs.span_coverage_pct", min_coverage);
          ("failed_pct", pct failed (Array.length all));
        ]
        @ totals pass;
    }
