(* map-regular and map-irregular: one client, one domain, one request
   at a time (closed loop) through the service's public entry points. *)

open Util

(* Latency limit for slo_pct on the closed loop; the slowest kernel
   (swim on a shared LLC) takes about half of it on a 2-core host. *)
let limit_ms = 250.

(* The request stream. A round is a seeded shuffle of every (kernel,
   LLC) pair under one machine seed; an epoch runs the rounds of all
   [Universe.map_seeds] seeds in seeded order. No key repeats within an
   epoch, and each epoch gets a fresh service (and so an empty cache),
   so the solution cache never answers. *)
type stream = {
  rng : Random.State.t;
  pairs : (string * Cache.Llc.org) list;
  mutable seeds : int list;
}

let stream ~workload ~seed =
  {
    rng = Random.State.make [| seed |];
    pairs = Universe.map_pairs workload;
    seeds = [];
  }

(* The next round's request lines, and whether it starts an epoch. *)
let next_round s =
  let epoch = s.seeds = [] in
  if epoch then
    s.seeds <-
      Array.to_list
        (shuffle s.rng (List.init Universe.map_seeds (fun i -> i + 1)));
  match s.seeds with
  | [] -> assert false
  | seed :: rest ->
      s.seeds <- rest;
      let round =
        Array.to_list (shuffle s.rng s.pairs)
        |> List.map (fun (kernel, llc) ->
               Universe.request_line ~kernel ~llc ~seed ())
      in
      (round, epoch)

(* Submit to response bytes, through the public serving entry points. *)
let submit api line =
  let t0 = now_ns () in
  let response =
    match Service.Request.of_string line with
    | Ok req -> Service.Response.to_string (Service.Api.submit api req)
    | Error e -> "undecodable request: " ^ e
  in
  (response, ms_since t0)

type sample = { line : string; response : string; ms : float }

(* Runs rounds until [seconds] have passed, stopping between requests;
   with [whole_rounds] it stops only at a round boundary, after at least
   one round. [op api index line] serves one request. *)
let closed_loop s api ~seconds ~whole_rounds op =
  let t0 = now_ns () in
  let samples = ref [] in
  let n = ref 0 in
  let rounds = ref 0 in
  let time_up () = s_since t0 >= seconds in
  (try
     while not (whole_rounds && !rounds > 0 && time_up ()) do
       let round, epoch = next_round s in
       if epoch then api := Service.Api.create ();
       List.iter
         (fun line ->
           if (not whole_rounds) && time_up () then raise Exit;
           let response, ms = op !api !n line in
           incr n;
           samples := { line; response; ms } :: !samples)
         round;
       incr rounds
     done
   with Exit -> ());
  (Array.of_list (List.rev !samples), s_since t0)

(* Set-up: request generation, service creation and a warm-up round. *)
let setup ~workload ~seed =
  let t0 = now_ns () in
  let s = stream ~workload ~seed in
  let api = ref (Service.Api.create ()) in
  let warm, _ = next_round s in
  List.iter (fun line -> ignore (submit !api line)) warm;
  (s, api, s_since t0)

let setups = 3

let check_samples digests samples =
  Check.responses digests
    (Array.to_list (Array.map (fun x -> (x.line, x.response)) samples))

let run ~workload ~seed ~seconds ~short ~expected : Outcome.t =
  let runs = List.init setups (fun _ -> setup ~workload ~seed) in
  let s, api, _ = List.nth runs (setups - 1) in
  let setup_s = median (Array.of_list (List.map (fun (_, _, t) -> t) runs)) in
  let samples, wall =
    closed_loop s api ~seconds:(if short then 0. else seconds)
      ~whole_rounds:short (fun api _ line -> submit api line)
  in
  let n = Array.length samples in
  let lat = Array.map (fun x -> x.ms) samples in
  let within = Array.fold_left (fun k x -> if x < limit_ms then k + 1 else k) 0 lat in
  let bad = check_samples (Universe.load_digests expected workload) samples in
  let p99_beyond = beyond n 0.99 in
  Outcome.
    {
      correct = bad = 0;
      attempted = n;
      failed = bad;
      notes =
        [
          Printf.sprintf
            "%s: %d requests in %.2f s; latency_p99_ms has %d samples beyond \
             it%s; slo limit %.0f ms; failed_pct %.3f"
            workload n wall p99_beyond
            (if p99_beyond < 10 then " (fewer than 10: not resolved)" else "")
            limit_ms (pct bad n);
        ];
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", median lat);
          ("latency_p99_ms", percentile lat 0.99);
          ("throughput_rps", float_of_int n /. wall);
          ("slo_pct", pct within n);
          ("peak_rss_mb", vm_hwm_mb "self");
        ];
    }

(* {1 Traced run} *)

(* Counts of one request's stage calls; identical for every machine
   seed of a (kernel, LLC) pair. *)
type counts = {
  sets : int;
  lines : int;
  symbolic : int;
  periodic : int;
  traced : int;
  replay_accesses : int;
  cost_calls : int;
  moved : int;
}

let estimation_of (req : Service.Request.t) prog =
  match req.options.estimation with
  | Service.Request.Cme -> Locmap.Mapper.Cme_estimate
  | Service.Request.Inspector -> Locmap.Mapper.Inspector
  | Service.Request.Oracle -> Locmap.Mapper.Oracle
  | Service.Request.Auto -> (
      match prog.Ir.Program.kind with
      | Ir.Program.Regular -> Locmap.Mapper.Cme_estimate
      | Ir.Program.Irregular -> Locmap.Mapper.Inspector)

(* One request through the layers directly, one span per layer call
   under a root span; the mapper phases come from its [on_phase] hook.
   The response bytes equal [submit]'s. *)
let traced_request tr index line =
  let root = Obs.Trace.root tr ~trace_id:(Printf.sprintf "req%06d" index) "request" in
  let span name f = Obs.Trace.with_span tr ~parent:root name (fun _ -> f ()) in
  let req =
    match span "service.decode" (fun () -> Service.Request.of_string line) with
    | Ok r -> r
    | Error e -> failwith ("undecodable request: " ^ e)
  in
  let entry = Workloads.Registry.find req.workload in
  let prog = span "workloads.synth" (fun () -> entry.program ~scale:req.scale ()) in
  let trace =
    span "ir.prepare" (fun () ->
        let layout =
          Ir.Layout.allocate
            ~page_size:Machine.Config.default.Machine.Config.page_size prog
        in
        Ir.Trace.create prog layout)
  in
  let o = req.options in
  let on_phase = Obs.Trace.phase_hook tr ~parent:root in
  let info =
    Locmap.Mapper.map
      ~estimation:(estimation_of req prog)
      ?fraction:o.fraction ~measure_error:o.measure_error ~balance:o.balance
      ?alpha_override:o.alpha_override ~on_phase req.machine trace
  in
  let response =
    span "service.encode" (fun () ->
        Service.Response.to_string
          (Service.Response.of_info ~id:0 ~hash:(Service.Request.hash req)
             ~workload:req.workload info))
  in
  Obs.Trace.finish tr root;
  (response, (req, prog, trace, info))

(* Mapper.map's nests are barrier-separated: it balances each nest's
   contiguous slice of sets on its own. *)
let nest_slices (sets : Ir.Iter_set.t array) =
  let slices = ref [] and start = ref 0 in
  Array.iteri
    (fun k (s : Ir.Iter_set.t) ->
      if k > 0 && s.nest <> sets.(k - 1).Ir.Iter_set.nest then begin
        slices := (!start, k - !start) :: !slices;
        start := k
      end)
    sets;
  if Array.length sets > 0 then
    slices := (!start, Array.length sets - !start) :: !slices;
  List.rev !slices

(* The partition and later phases again, one public call at a time, each
   in its own span: memo build, summaries (with an Obs.Metrics for the
   tier counters), assignment and balance (with a counting cost). The
   result must reproduce the mapper's pre- and post-balance regions. *)
let staged tr index ((req : Service.Request.t), prog, trace, (info : Locmap.Mapper.info)) =
  let root = Obs.Trace.root tr ~trace_id:(Printf.sprintf "stg%06d" index) "stages" in
  let span name f = Obs.Trace.with_span tr ~parent:root name (fun _ -> f ()) in
  let cfg = req.machine in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let memo =
    span "core.line_memo" (fun () ->
        Locmap.Line_memo.create cfg amap (Ir.Trace.layout trace))
  in
  let regions = Locmap.Region.create cfg in
  let fraction =
    Option.value req.options.fraction ~default:cfg.Machine.Config.iter_set_fraction
  in
  let sets = Ir.Iter_set.partition prog ~fraction in
  let metrics = Obs.Metrics.create () in
  let tier name =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter metrics ("locmap_cme_tier_" ^ name ^ "_accesses_total"))
  in
  let summaries, replay_accesses =
    match estimation_of req prog with
    | Locmap.Mapper.Cme_estimate ->
        ( span "core.analysis.cme" (fun () ->
              Locmap.Analysis.cme_summaries ~memo ~metrics cfg amap trace ~sets),
          0 )
    | Locmap.Mapper.Inspector | Locmap.Mapper.Oracle as e ->
        let warm_pass = e = Locmap.Mapper.Oracle || req.options.measure_error in
        let cold, warm =
          span "core.analysis.replay" (fun () ->
              Locmap.Analysis.observed_summaries ~warm_pass ~memo cfg amap
                trace ~sets)
        in
        let accesses =
          Array.fold_left
            (fun acc (s : Ir.Iter_set.t) ->
              acc + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
            0 sets
        in
        ((if e = Locmap.Mapper.Oracle then warm else cold),
         accesses * if warm_pass then 2 else 1)
  in
  let tables = Locmap.Assign.create ?alpha_override:req.options.alpha_override cfg regions in
  let pre = span "core.assign" (fun () -> Locmap.Assign.assign tables summaries) in
  let cost_calls = ref 0 in
  let post =
    span "core.balance" (fun () ->
        let post = Array.copy pre in
        if req.options.balance then
          List.iter
            (fun (lo, len) ->
              let balanced =
                Locmap.Balance.balance ~regions
                  ~cost:(fun local r ->
                    incr cost_calls;
                    Locmap.Assign.error tables summaries.(lo + local) ~region:r)
                  ~region_of_set:(Array.sub pre lo len)
              in
              Array.blit balanced 0 post lo len)
            (nest_slices sets);
        post)
  in
  Obs.Trace.finish tr root;
  let moved = ref 0 in
  Array.iteri (fun k r -> if r <> pre.(k) then incr moved) post;
  let agrees = pre = info.pre_balance_region && post = info.region_of_set in
  ( agrees,
    {
      sets = Array.length sets;
      lines = Locmap.Line_memo.num_lines memo;
      symbolic = tier "symbolic";
      periodic = tier "periodic";
      traced = tier "traced";
      replay_accesses;
      cost_calls = !cost_calls;
      moved = !moved;
    } )

let run_traced ~workload ~seed ~seconds ~short ~expected ~out_dir : Outcome.t =
  let s, api, _ = setup ~workload ~seed in
  let half = if short then 0. else seconds /. 2. in
  let untraced, _ =
    closed_loop s api ~seconds:half ~whole_rounds:short (fun api _ line ->
        submit api line)
  in
  let tr = Obs.Trace.create () in
  let per_pair = Hashtbl.create 32 in
  let disagreements = ref 0 in
  let traced, _ =
    closed_loop s api ~seconds:half ~whole_rounds:true (fun _ index line ->
        let response, artifacts = traced_request tr index line in
        let agrees, counts = staged tr index artifacts in
        if not agrees then incr disagreements;
        let req, _, _, _ = artifacts in
        let pair = (req.Service.Request.workload, req.machine.Machine.Config.llc_org) in
        if not (Hashtbl.mem per_pair pair) then Hashtbl.add per_pair pair counts;
        (* Timed by its root span, not by the loop. *)
        (response, 0.))
  in
  let spans = Spans.write_and_parse tr (Filename.concat out_dir
      (Printf.sprintf "%s-seed%d.trace.jsonl" workload seed)) in
  let bad =
    check_samples (Universe.load_digests expected workload)
      (Array.append untraced traced)
  in
  let total f = float_of_int (Hashtbl.fold (fun _ c acc -> acc + f c) per_pair 0) in
  let requests = Spans.by_root spans "request" in
  let stages = Spans.by_root spans "stages" in
  let root_ms = Array.of_list (List.map (fun r -> r.Spans.root_ms) requests) in
  let untraced_p50 = median (Array.map (fun x -> x.ms) untraced) in
  let min_coverage =
    List.fold_left (fun acc r -> Float.min acc (Spans.coverage r)) 100. requests
  in
  let failed = bad + !disagreements in
  let attempted = Array.length untraced + Array.length traced in
  Outcome.
    {
      correct = failed = 0;
      attempted;
      failed;
      notes =
        [
          Printf.sprintf
            "%s traced: %d untraced + %d traced requests; %d stage runs \
             disagree with Mapper.map; lowest span coverage %.2f%% of a root"
            workload (Array.length untraced) (Array.length traced)
            !disagreements min_coverage;
        ];
      metrics =
        [
          ("workloads.synth_ms", Spans.median_child requests "workloads.synth");
          ("ir.prepare_ms", Spans.median_child requests "ir.prepare");
          ("ir.sets", total (fun c -> c.sets));
          ("core.line_memo.build_ms", Spans.median_child stages "core.line_memo");
          ("core.line_memo.lines", total (fun c -> c.lines));
          ("core.mapper.partition_ms", Spans.median_child requests "phase.partition");
          ("core.mapper.summarise_ms", Spans.median_child requests "phase.summarise");
          ("core.mapper.assign_ms", Spans.median_child requests "phase.assign");
          ("core.mapper.balance_ms", Spans.median_child requests "phase.balance");
          ("core.mapper.place_ms", Spans.median_child requests "phase.place");
          ("core.analysis.cme_ms", Spans.median_child stages "core.analysis.cme");
          ("cme.tier_symbolic_accesses", total (fun c -> c.symbolic));
          ("cme.tier_periodic_accesses", total (fun c -> c.periodic));
          ("cme.tier_traced_accesses", total (fun c -> c.traced));
          ("core.analysis.replay_ms", Spans.median_child stages "core.analysis.replay");
          ("core.analysis.replay_accesses", total (fun c -> c.replay_accesses));
          ("core.assign_ms", Spans.median_child stages "core.assign");
          ("core.balance_ms", Spans.median_child stages "core.balance");
          ("core.balance.cost_calls", total (fun c -> c.cost_calls));
          ( "core.balance.moved_pct",
            let sets = Hashtbl.fold (fun _ c acc -> acc + c.sets) per_pair 0 in
            pct (int_of_float (total (fun c -> c.moved))) sets );
          ("service.decode_ms", Spans.median_child requests "service.decode");
          ("service.encode_ms", Spans.median_child requests "service.encode");
          ( "obs.trace_overhead_pct",
            100. *. (median root_ms -. untraced_p50) /. untraced_p50 );
          ("obs.span_coverage_pct", min_coverage);
          ("failed_pct", pct failed attempted);
        ];
    }
