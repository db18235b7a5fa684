type estimation =
  | Cme_estimate
  | Inspector
  | Oracle

type info = {
  schedule : Machine.Schedule.t;
  baseline : Machine.Schedule.t;
  sets : Ir.Iter_set.t array;
  region_of_set : int array;
  pre_balance_region : int array;
  moved_fraction : float;
  alpha_mean : float;
  mai_error : float;
  cai_error : float;
  overhead_cycles : int;
  estimation : estimation;
}

(* Runtime-scheme cost model (cycles). The inspector instruments one
   timing step's accesses, and the eta/assignment solve is data-parallel
   over iteration sets, so both phases run spread across the cores; the
   executor pays a per-set dispatch-table lookup. *)
let inspector_cycles_per_access = 2
let assignment_cycles_per_set_region = 20
let table_lookup_cycles_per_set = 30

let overhead_cycles_of (cfg : Machine.Config.t) trace ~num_sets ~estimation =
  let prog = Ir.Trace.program trace in
  let num_regions = Machine.Config.num_regions cfg in
  let cores = Machine.Config.num_cores cfg in
  match (estimation, prog.Ir.Program.kind) with
  | Cme_estimate, _ | (Inspector | Oracle), Ir.Program.Regular ->
      (* Compile-time mapping: only the embedded-table lookups remain. *)
      num_sets * table_lookup_cycles_per_set / cores
  | (Inspector | Oracle), Ir.Program.Irregular ->
      let per_step_accesses = Ir.Program.total_accesses_per_step prog in
      ((inspector_cycles_per_access * per_step_accesses)
      + (num_sets * num_regions * assignment_cycles_per_set_region)
      + (num_sets * table_lookup_cycles_per_set))
      / cores

let default_estimation (prog : Ir.Program.t) =
  match prog.kind with
  | Ir.Program.Regular -> Cme_estimate
  | Ir.Program.Irregular -> Inspector

(* Random-but-balanced core choice inside each region (Section 3.9):
   each set goes to a random core among the least-loaded cores of its
   region, load measured in iterations. *)
let place_within_regions (cfg : Machine.Config.t) regions rng ~allowed
    ~region_of_set ~(sets : Ir.Iter_set.t array) =
  let num_cores = Machine.Config.num_cores cfg in
  let loads = Array.make num_cores 0 in
  let core_of = Array.make (Array.length sets) 0 in
  let cols = cfg.Machine.Config.cols in
  let dist_to_region_center r c =
    let cr, cc = Region.center regions r in
    Float.abs (cr -. float_of_int (c / cols))
    +. Float.abs (cc -. float_of_int (c mod cols))
  in
  Array.iteri
    (fun k r ->
      let in_region =
        Array.to_list (Region.nodes_of regions r)
        |> List.filter (fun c -> allowed.(c))
      in
      let pool =
        match in_region with
        | _ :: _ -> in_region
        | [] ->
            (* Multiprogrammed run whose core subset misses this region:
               fall back to the allowed cores nearest the region. *)
            let all =
              List.filter (fun c -> allowed.(c)) (List.init num_cores Fun.id)
            in
            let best =
              List.fold_left
                (fun acc c ->
                  Float.min acc (dist_to_region_center r c))
                infinity all
            in
            List.filter (fun c -> dist_to_region_center r c <= best +. 1e-9) all
      in
      let min_load =
        List.fold_left (fun acc c -> min acc loads.(c)) max_int pool
      in
      let candidates =
        Array.of_list (List.filter (fun c -> loads.(c) = min_load) pool)
      in
      let c =
        match cfg.Machine.Config.placement with
        | Machine.Config.Random_balanced ->
            candidates.(Random.State.int rng (Array.length candidates))
        | Machine.Config.Least_loaded -> candidates.(0)
      in
      core_of.(k) <- c;
      loads.(c) <- loads.(c) + Ir.Iter_set.size sets.(k))
    region_of_set;
  core_of

(* Layouts are 8 KB-aligned, so the default page size keeps them
   page-aligned for any configured page size below 8 KB: a machine with
   another page size changes only the interleaving. *)
let trace_of_program prog =
  Ir.Trace.create prog
    (Ir.Layout.allocate
       ~page_size:Machine.Config.default.Machine.Config.page_size prog)

let default_schedule ?fraction (cfg : Machine.Config.t) trace =
  let fraction =
    Option.value fraction ~default:cfg.Machine.Config.iter_set_fraction
  in
  let sets = Ir.Iter_set.partition (Ir.Trace.program trace) ~fraction in
  Machine.Schedule.round_robin ~num_cores:(Machine.Config.num_cores cfg) sets

let map ?estimation ?fraction ?(measure_error = true) ?page_table ?cores
    ?(balance = true) ?alpha_override ?(on_phase = fun (_ : string) -> ())
    ?(verify = false) ?pool ?metrics (cfg : Machine.Config.t) trace =
  let prog = Ir.Trace.program trace in
  (* Debug mode: assert pipeline invariants just before each [on_phase]
     boundary. [verify = false] (the default) skips every check, so the
     serving path is unchanged. *)
  let vcheck phase checks =
    if verify then
      Invariant.fail_if_any
        (Invariant.all
           (List.map
              (fun c -> c (prog.Ir.Program.name ^ "/" ^ phase))
              checks))
  in
  let nest_iterations =
    lazy
      (Array.of_list
         (List.map Ir.Loop_nest.iterations prog.Ir.Program.nests))
  in
  let estimation =
    Option.value estimation ~default:(default_estimation prog)
  in
  let fraction =
    Option.value fraction ~default:cfg.Machine.Config.iter_set_fraction
  in
  let pt =
    match page_table with
    | Some pt -> pt
    | None -> Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size ()
  in
  let amap = Machine.Addr_map.create cfg pt in
  (* One line memo serves every summarisation below: the CME pass and
     up to two observed replays resolve locations for the same layout. *)
  let memo = Line_memo.create ?metrics cfg amap (Ir.Trace.layout trace) in
  let regions = Region.create cfg in
  let sets = Ir.Iter_set.partition prog ~fraction in
  vcheck "partition"
    [
      (fun where -> Invariant.region_grid ~where cfg regions);
      (fun where ->
        Invariant.partition ~where
          ~nest_iterations:(Lazy.force nest_iterations) sets);
    ];
  on_phase "partition";
  (* Summarise every set under the requested estimation mode. *)
  let summaries, mai_error, cai_error =
    match estimation with
    | Cme_estimate ->
        let est =
          Analysis.cme_summaries ?pool ~memo ?metrics cfg amap trace ~sets
        in
        if measure_error then begin
          let _, warm =
            Analysis.observed_summaries ~memo cfg amap trace ~sets
          in
          ( est,
            Analysis.mean_error Summary.mai est warm,
            Analysis.mean_error Summary.cai est warm )
        end
        else (est, 0., 0.)
    | Inspector ->
        let cold, warm =
          Analysis.observed_summaries ~warm_pass:measure_error ~memo cfg amap
            trace ~sets
        in
        if measure_error then
          ( cold,
            Analysis.mean_error Summary.mai cold warm,
            Analysis.mean_error Summary.cai cold warm )
        else (cold, 0., 0.)
    | Oracle ->
        let _, warm = Analysis.observed_summaries ~memo cfg amap trace ~sets in
        (warm, 0., 0.)
  in
  vcheck "summarise"
    [
      (fun where -> Invariant.summaries ~where summaries);
      (fun where ->
        (* Each set executes (iterations x accesses-per-iteration); the
           bulk-arithmetic CME tiers must conserve that count exactly. *)
        let expected_accesses =
          Array.map
            (fun (s : Ir.Iter_set.t) ->
              Ir.Iter_set.size s
              * Ir.Trace.accesses_per_par_iter trace ~nest:s.nest)
            sets
        in
        Invariant.summary_totals ~where
          ~shared:(Cache.Llc.equal cfg.llc_org Cache.Llc.Shared)
          ~expected_accesses summaries);
    ];
  on_phase "summarise";
  let tables = Assign.create ?alpha_override cfg regions in
  let pre_balance_region = Assign.assign tables summaries in
  vcheck "assign"
    [
      (fun where ->
        Invariant.tables ~where ~num_regions:(Region.count regions) tables);
      (fun where ->
        Invariant.assignment ~where ~num_regions:(Region.count regions)
          pre_balance_region);
    ];
  on_phase "assign";
  (* Algorithm 1 runs once per parallel loop nest: balancing (and the
     in-region placement below) must level each nest's load separately,
     because nests are barrier-separated phases. *)
  let nest_slices =
    let slices = ref [] in
    let start = ref 0 in
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
  in
  let region_of_set = Array.copy pre_balance_region in
  if balance then
    List.iter
      (fun (lo, len) ->
        let sub = Array.sub pre_balance_region lo len in
        let balanced =
          Balance.balance ~regions
            ~cost:(fun local r ->
              Assign.error tables summaries.(lo + local) ~region:r)
            ~region_of_set:sub
        in
        Array.blit balanced 0 region_of_set lo len)
      nest_slices;
  vcheck "balance"
    [
      (fun where ->
        Invariant.assignment ~where ~num_regions:(Region.count regions)
          region_of_set);
      (fun where ->
        if balance then
          Invariant.balance ~where ~num_regions:(Region.count regions) ~sets
            region_of_set
        else []);
    ];
  on_phase "balance";
  let moved =
    let n = Array.length region_of_set in
    if n = 0 then 0.
    else begin
      let m = ref 0 in
      Array.iteri
        (fun k r -> if r <> pre_balance_region.(k) then incr m)
        region_of_set;
      float_of_int !m /. float_of_int n
    end
  in
  let rng = Random.State.make [| cfg.Machine.Config.seed |] in
  let allowed =
    let a = Array.make (Machine.Config.num_cores cfg) false in
    (match cores with
    | None -> Array.fill a 0 (Array.length a) true
    | Some cs ->
        if cs = [||] then invalid_arg "Mapper.map: empty core subset";
        Array.iter
          (fun c ->
            if c < 0 || c >= Array.length a then
              invalid_arg "Mapper.map: core out of range";
            a.(c) <- true)
          cs);
    a
  in
  let core_of = Array.make (Array.length sets) 0 in
  List.iter
    (fun (lo, len) ->
      let sub_core =
        place_within_regions cfg regions rng ~allowed
          ~region_of_set:(Array.sub region_of_set lo len)
          ~sets:(Array.sub sets lo len)
      in
      Array.blit sub_core 0 core_of lo len)
    nest_slices;
  vcheck "place"
    [
      (fun where ->
        Invariant.placement ~where ~in_region:(cores = None) cfg regions
          ~region_of_set
          (Machine.Schedule.make ~sets ~core_of));
    ];
  on_phase "place";
  let alpha_mean =
    if Array.length summaries = 0 then 0.5
    else
      Array.fold_left (fun acc s -> acc +. Summary.alpha s) 0. summaries
      /. float_of_int (Array.length summaries)
  in
  let cai_error =
    match cfg.Machine.Config.llc_org with
    | Cache.Llc.Private -> 0.
    | Cache.Llc.Shared -> cai_error
  in
  {
    schedule = Machine.Schedule.make ~sets ~core_of;
    baseline =
      Machine.Schedule.round_robin ?cores
        ~num_cores:(Machine.Config.num_cores cfg)
        sets;
    sets;
    region_of_set;
    pre_balance_region;
    moved_fraction = moved;
    alpha_mean;
    mai_error;
    cai_error;
    overhead_cycles =
      overhead_cycles_of cfg trace ~num_sets:(Array.length sets) ~estimation;
    estimation;
  }

let job ?cores trace info =
  let prog = Ir.Trace.program trace in
  let schedule_of_step, step_overhead =
    match prog.Ir.Program.kind with
    | Ir.Program.Regular ->
        ( (fun _ -> info.schedule),
          fun step -> if step = 0 then info.overhead_cycles else 0 )
    | Ir.Program.Irregular ->
        (* Inspector–executor: step 0 runs under the default mapping and
           pays the inspector; later steps use the optimised mapping. *)
        ( (fun step -> if step = 0 then info.baseline else info.schedule),
          fun step -> if step = 0 then info.overhead_cycles else 0 )
  in
  Machine.Engine.job ?cores ~trace ~schedule_of_step ~step_overhead ()
