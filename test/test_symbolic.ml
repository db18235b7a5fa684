(* Tests for the trace-free symbolic CME tier and the allocation-free
   observed replay: plan decomposition against the brute-force
   classifier law, symbolic-vs-walker equivalence over the whole
   registry, tier coverage accounting, Affine algebra laws,
   access_hit = access, and the replay and engine allocation budgets. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }
let private_cfg = { Machine.Config.default with llc_org = Cache.Llc.Private }

let prepare ?(scale = 0.1) name =
  let p = Harness.Experiment.prepare_name ~scale name in
  (p.Harness.Experiment.prog, p.Harness.Experiment.trace)

let partition prog (cfg : Machine.Config.t) =
  Ir.Iter_set.partition prog ~fraction:cfg.iter_set_fraction

let summaries_equal (a : Locmap.Summary.t array) (b : Locmap.Summary.t array)
    =
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

let multiples_in p ~lo ~hi = ((hi + p - 1) / p) - ((lo + p - 1) / p)

(* ------------------------------------------------------------------ *)
(* Plan decomposition = classifier law, brute-forced. For every plan
   the registry yields, and seeded random parallel subranges: the
   progressions' (address, class) multiset must equal walking the
   L1-miss executions through the trace and classifying each one with
   the period law (LLC miss iff (c / p1) mod p2 = 0; for an LLC
   cold-only reference every class is a hit and [flips_exec0] owns the
   execution-0 correction). *)

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun k n ok -> ok && Option.value ~default:(-1) (Hashtbl.find_opt b k) = n)
       a true

let test_plan_matches_classifier_law () =
  let rng = Random.State.make [| 0x5eed; 0xcafe |] in
  let cfg = shared_cfg in
  let plans_checked = ref 0 in
  List.iter
    (fun name ->
      let prog, trace = prepare ~scale:0.05 name in
      let layout = Ir.Trace.layout trace in
      let nnests = List.length prog.Ir.Program.nests in
      for nest = 0 to nnests - 1 do
        let p = Cme.create cfg prog layout ~nest in
        let it = Cme.inner_trip p in
        let iters = Ir.Trace.iterations trace ~nest in
        for r = 0 to Cme.num_refs p - 1 do
          let p1 = Cme.l1_period p r in
          let p2 = Cme.llc_period p r in
          match Cme.Symbolic.plan trace ~nest ~body:r ~p1 ~p2 ~step:0 with
          | None -> ()
          | Some plan ->
              incr plans_checked;
              check_int
                (Printf.sprintf "%s nest %d ref %d: plan p1" name nest r)
                p1
                (Cme.Symbolic.l1_period plan);
              check_bool
                (Printf.sprintf "%s nest %d ref %d: flip iff cold" name nest r)
                (p2 = max_int)
                (Cme.Symbolic.flips_exec0 plan);
              let aps = Cme.Symbolic.make_aps () in
              let ranges =
                (0, iters)
                :: List.init 6 (fun _ ->
                       let lo = Random.State.int rng iters in
                       let hi = lo + 1 + Random.State.int rng (iters - lo) in
                       (lo, hi))
              in
              List.iter
                (fun (lo, hi) ->
                  let c0 = lo * it and c1 = hi * it in
                  Cme.Symbolic.decompose plan ~lo ~hi aps;
                  check_int
                    (Printf.sprintf "%s nest %d ref %d [%d,%d): visited" name
                       nest r lo hi)
                    (multiples_in p1 ~lo:c0 ~hi:c1)
                    (Cme.Symbolic.visited_total aps);
                  (* Expected (address, class) multiset from the trace. *)
                  let expected = Hashtbl.create 64 in
                  let first = (c0 + p1 - 1) / p1 * p1 in
                  Ir.Trace.iter_body_periodic trace ~nest ~body:r ~first
                    ~hi:c1 ~period:p1 (fun ~exec ~addr ->
                      let miss = p2 <> max_int && exec / p1 mod p2 = 0 in
                      bump expected (addr, miss) 1);
                  (* The plan's progressions, expanded. *)
                  let got = Hashtbl.create 64 in
                  for j = 0 to aps.Cme.Symbolic.n - 1 do
                    for k = 0 to aps.Cme.Symbolic.ap_count.(j) - 1 do
                      bump got
                        ( aps.Cme.Symbolic.ap_a0.(j)
                          + (k * aps.Cme.Symbolic.ap_stride.(j)),
                          aps.Cme.Symbolic.ap_miss.(j) )
                        aps.Cme.Symbolic.ap_mult.(j)
                    done
                  done;
                  check_bool
                    (Printf.sprintf "%s nest %d ref %d [%d,%d): multiset" name
                       nest r lo hi)
                    true
                    (tables_equal expected got))
                ranges
        done
      done)
    [ "mxm"; "jacobi-3d"; "fft"; "cholesky"; "lu"; "swim" ];
  check_bool "registry yielded plans to check" true (!plans_checked > 0)

(* ------------------------------------------------------------------ *)
(* The symbolic tier changes nothing: summaries with the tier on equal
   summaries with every affine reference forced onto the trace-walking
   tiers, for every registry workload and both LLC organisations. *)

let test_symbolic_equals_walkers () =
  List.iter
    (fun cfg ->
      List.iter
        (fun name ->
          let prog, trace = prepare name in
          let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
          let amap = Machine.Addr_map.create cfg pt in
          let sets = partition prog cfg in
          let sym = Locmap.Analysis.cme_summaries cfg amap trace ~sets in
          let walked =
            Locmap.Analysis.cme_summaries ~symbolic:false cfg amap trace ~sets
          in
          check_bool
            (Printf.sprintf "%s: symbolic = walkers" name)
            true
            (summaries_equal sym walked))
        Workloads.Registry.names)
    [ shared_cfg; private_cfg ]

(* ------------------------------------------------------------------ *)
(* Tier coverage accounting: the three tiers partition the accesses
   (they sum to the total), a pure-affine workload runs fully
   symbolic, and an index-array workload reports traced accesses. *)

let tier_counts name cfg =
  let prog, trace = prepare name in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let sets = partition prog cfg in
  let im = Obs.Metrics.create () in
  ignore (Locmap.Analysis.cme_summaries ~metrics:im cfg amap trace ~sets);
  let v n = Obs.Metrics.counter_value (Obs.Metrics.counter im n) in
  ( v "locmap_cme_accesses_total",
    v "locmap_cme_tier_symbolic_accesses_total",
    v "locmap_cme_tier_periodic_accesses_total",
    v "locmap_cme_tier_traced_accesses_total" )

let test_tier_coverage () =
  let total, sym, per, traced = tier_counts "mxm" shared_cfg in
  check_int "mxm: tiers partition accesses" total (sym + per + traced);
  check_int "mxm: nothing traced" 0 traced;
  check_bool "mxm: symbolic covers accesses" true (sym > 0);
  let total, sym, per, traced = tier_counts "barnes" shared_cfg in
  check_int "barnes: tiers partition accesses" total (sym + per + traced);
  check_bool "barnes: index arrays are traced" true (traced > 0)

(* ------------------------------------------------------------------ *)
(* Affine algebra laws, seeded. *)

let affine_gen =
  let open QCheck.Gen in
  let vars = [ "i"; "j"; "k"; "t" ] in
  let term =
    oneof
      [
        map Ir.Affine.const (int_range (-50) 50);
        map2
          (fun v c -> Ir.Affine.var ~coeff:c v)
          (oneofl vars) (int_range (-8) 8);
      ]
  in
  map
    (fun ts -> List.fold_left Ir.Affine.add (Ir.Affine.const 0) ts)
    (list_size (int_range 0 6) term)

let affine_arb = QCheck.make ~print:(Format.asprintf "%a" Ir.Affine.pp) affine_gen

let env values v =
  match v with
  | "i" -> List.nth values 0
  | "j" -> List.nth values 1
  | "k" -> List.nth values 2
  | _ -> List.nth values 3

let env_gen = QCheck.(list_of_size (QCheck.Gen.return 4) (int_range (-20) 20))

let qcheck_affine_eval_morphism =
  QCheck.Test.make ~name:"eval is linear over add/sub/scale" ~count:200
    QCheck.(triple affine_arb affine_arb (pair small_int env_gen))
    (fun (a, b, (k, values)) ->
      let e = env values in
      let k = k mod 16 in
      Ir.Affine.eval e (Ir.Affine.add a b)
      = Ir.Affine.eval e a + Ir.Affine.eval e b
      && Ir.Affine.eval e (Ir.Affine.sub a b)
         = Ir.Affine.eval e a - Ir.Affine.eval e b
      && Ir.Affine.eval e (Ir.Affine.scale k a) = k * Ir.Affine.eval e a)

let qcheck_affine_coeff_structure =
  QCheck.Test.make ~name:"coeff/constant_part respect the algebra"
    ~count:200
    QCheck.(pair affine_arb affine_arb)
    (fun (a, b) ->
      let s = Ir.Affine.add a b in
      Ir.Affine.constant_part s
      = Ir.Affine.constant_part a + Ir.Affine.constant_part b
      && List.for_all
           (fun v ->
             Ir.Affine.coeff s v = Ir.Affine.coeff a v + Ir.Affine.coeff b v)
           [ "i"; "j"; "k"; "t" ]
      && Ir.Affine.equal s (Ir.Affine.add b a)
      && List.for_all
           (fun v -> Ir.Affine.coeff s v <> 0)
           (Ir.Affine.vars s))

let qcheck_affine_eval_decomposes =
  QCheck.Test.make ~name:"eval = constant_part + sum coeff*value"
    ~count:200
    QCheck.(pair affine_arb env_gen)
    (fun (a, values) ->
      let e = env values in
      Ir.Affine.eval e a
      = Ir.Affine.constant_part a
        + List.fold_left
            (fun acc v -> acc + (Ir.Affine.coeff a v * e v))
            0 (Ir.Affine.vars a))

(* ------------------------------------------------------------------ *)
(* access_hit is access: same verdicts, same statistics, under random
   interleaving of the two entry points on mirrored caches. *)

let qcheck_access_hit_equals_access =
  QCheck.Test.make ~name:"access_hit = access (mirrored interleaving)"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 1 400) (pair (int_bound 8192) bool))
    (fun ops ->
      let mk () = Cache.Sa_cache.create ~size:2048 ~assoc:4 ~line_size:32 () in
      let a = mk () and b = mk () in
      List.for_all
        (fun (addr, write) ->
          let ha =
            match Cache.Sa_cache.access a ~addr ~write with
            | Cache.Sa_cache.Hit -> true
            | Cache.Sa_cache.Miss _ -> false
          in
          let hb = Cache.Sa_cache.access_hit b ~addr ~write in
          ha = hb)
        ops
      && Cache.Sa_cache.hits a = Cache.Sa_cache.hits b
      && Cache.Sa_cache.misses a = Cache.Sa_cache.misses b
      && Cache.Sa_cache.writebacks a = Cache.Sa_cache.writebacks b)

(* ------------------------------------------------------------------ *)
(* Replay allocation budget: one observed replay allocates a constant
   amount (caches, summaries, scratch, closures) — nothing per access.
   mxm at this scale streams ~1.8M accesses, so even one word per
   access would allocate ~14 MB; the budget below only covers the
   setup. *)

let test_replay_allocation_budget () =
  let prog, trace = prepare "mxm" in
  let cfg = private_cfg in
  let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
  let amap = Machine.Addr_map.create cfg pt in
  let memo = Locmap.Line_memo.create cfg amap (Ir.Trace.layout trace) in
  let sets = partition prog cfg in
  let accesses =
    Array.fold_left
      (fun acc (s : Ir.Iter_set.t) ->
        acc
        + (Ir.Iter_set.size s * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest))
      0 sets
  in
  check_bool "workload is large enough to measure" true (accesses > 1_000_000);
  (* Warm once so one-time lazy setup does not bill the measured run. *)
  ignore
    (Locmap.Analysis.observed_summaries ~warm_pass:false ~memo cfg amap trace
       ~sets);
  let before = Gc.allocated_bytes () in
  ignore
    (Locmap.Analysis.observed_summaries ~warm_pass:false ~memo cfg amap trace
       ~sets);
  let allocated = Gc.allocated_bytes () -. before in
  (* Setup for this configuration (one private bank, the summaries, the
     scratch, four closures per set) stays well under 2 MB; a single
     word per access would exceed 14 MB. *)
  check_bool
    (Printf.sprintf "replay allocated %.0f bytes for %d accesses" allocated
       accesses)
    true
    (allocated < 2_097_152.)

(* Engine allocation budget: the simulator's per-access and per-event
   path allocates nothing, so a whole [Engine.run] — caches, network,
   schedules and per-phase set lists included — stays within a few
   minor-heap words per simulated access. radix is the kernel whose
   events per access are highest (irregular misses on both LLCs); the
   boxed-event engine allocated ~50-75 words per access on it. *)

let test_engine_allocation_budget () =
  let _, trace = prepare "radix" in
  List.iter
    (fun (cfg : Machine.Config.t) ->
      let schedule = Locmap.Mapper.default_schedule cfg trace in
      let run () = Machine.Engine.run_single cfg ~trace ~schedule () in
      ignore (run ());
      let before = Gc.minor_words () in
      let r = run () in
      let words = Gc.minor_words () -. before in
      let accesses = r.stats.Machine.Stats.accesses in
      check_bool "workload is large enough to measure" true (accesses > 100_000);
      let per_access = words /. float_of_int accesses in
      check_bool
        (Printf.sprintf "%s LLC: %.2f minor words per access (budget 4)"
           (if cfg.llc_org = Cache.Llc.Shared then "shared" else "private")
           per_access)
        true (per_access <= 4.))
    [ private_cfg; shared_cfg ]

let () =
  Alcotest.run "symbolic"
    [
      ( "plan",
        [
          Alcotest.test_case "decomposition = classifier law" `Quick
            test_plan_matches_classifier_law;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "symbolic = walkers (all workloads, both LLCs)"
            `Quick test_symbolic_equals_walkers;
          Alcotest.test_case "tier coverage partitions accesses" `Quick
            test_tier_coverage;
        ] );
      ( "affine",
        [
          QCheck_alcotest.to_alcotest qcheck_affine_eval_morphism;
          QCheck_alcotest.to_alcotest qcheck_affine_coeff_structure;
          QCheck_alcotest.to_alcotest qcheck_affine_eval_decomposes;
        ] );
      ( "cache",
        [ QCheck_alcotest.to_alcotest qcheck_access_hit_equals_access ] );
      ( "allocation",
        [
          Alcotest.test_case "replay allocates nothing per access" `Quick
            test_replay_allocation_budget;
          Alcotest.test_case "engine within 4 words per access" `Quick
            test_engine_allocation_budget;
        ] );
    ]
