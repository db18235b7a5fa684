(* The result line, and the metric catalogue BENCHMARK.json declares. *)

type metric = { name : string; value : float; unit_ : string }

let end_to_end =
  [
    ("setup_s", "s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("throughput_rps", "req/s");
    ("slo_pct", "%");
    ("sim_kaccess_per_s", "kaccess/s");
    ("exec_reduction_pct", "%");
    ("net_latency_reduction_pct", "%");
    ("peak_rss_mb", "MB");
  ]

(* A simulated-quality metric has no meaning on a workload that runs no
   simulation; it reads this constant there (README.md, "Metrics"). *)
let not_applicable = 1.

let per_layer =
  [
    ("workloads.synth_ms", "ms");
    ("ir.prepare_ms", "ms");
    ("ir.sets", "count");
    ("core.line_memo.build_ms", "ms");
    ("core.line_memo.lines", "count");
    ("core.mapper.partition_ms", "ms");
    ("core.mapper.summarise_ms", "ms");
    ("core.mapper.assign_ms", "ms");
    ("core.mapper.balance_ms", "ms");
    ("core.mapper.place_ms", "ms");
    ("core.analysis.cme_ms", "ms");
    ("cme.tier_symbolic_accesses", "count");
    ("cme.tier_periodic_accesses", "count");
    ("cme.tier_traced_accesses", "count");
    ("core.analysis.replay_ms", "ms");
    ("core.analysis.replay_accesses", "count");
    ("core.assign_ms", "ms");
    ("core.balance_ms", "ms");
    ("core.balance.cost_calls", "count");
    ("core.balance.moved_pct", "%");
    ("core.analysis.mai_error", "eta");
    ("core.analysis.cai_error", "eta");
    ("service.decode_ms", "ms");
    ("service.encode_ms", "ms");
    ("service.solution_cache.hit_pct", "%");
    ("service.solution_cache.evictions", "count");
    ("service.computed", "count");
    ("par.pool.busy_pct", "%");
    ("net.first_p50_ms", "ms");
    ("net.repeat_p50_ms", "ms");
    ("net.admitted", "count");
    ("net.shed", "count");
    ("net.generator_lag_p99_ms", "ms");
    ("machine.engine.sim_ms", "ms");
    ("machine.engine.ns_per_access", "ns");
    ("machine.accesses", "count");
    ("machine.cycles.default", "cycles");
    ("machine.cycles.la", "cycles");
    ("noc.packets.default", "count");
    ("noc.packets.la", "count");
    ("noc.avg_latency_cycles.default", "cycles");
    ("noc.avg_latency_cycles.la", "cycles");
    ("noc.queueing_pct.default", "%");
    ("noc.queueing_pct.la", "%");
    ("cache.l1_hit_pct.default", "%");
    ("cache.l1_hit_pct.la", "%");
    ("cache.llc_hit_pct.default", "%");
    ("cache.llc_hit_pct.la", "%");
    ("mem.dram_row_hit_pct.default", "%");
    ("mem.dram_row_hit_pct.la", "%");
    ("harness.prepare_ms", "ms");
    ("core.mapper.map_ms", "ms");
    ("obs.trace_overhead_pct", "%");
    ("obs.span_coverage_pct", "%");
    ("failed_pct", "%");
  ]

(* Fills every catalogue entry from [values] (name -> value); entries a
   workload does not produce read [default]. *)
let complete catalogue ~default values =
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name values with Some v -> v | None -> default
      in
      { name; value; unit_ })
    catalogue

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The last line of standard output. *)
let print ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
          (number m.value) m.unit_)
      metrics
  in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed (String.concat ", " body);
  print_newline ()
