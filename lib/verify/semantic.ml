module I = Locmap.Invariant

type diagnostic = Locmap.Invariant.diagnostic = {
  invariant : string;
  location : string;
  message : string;
}

type options = {
  estimation : Locmap.Mapper.estimation option;
  fraction : float option;
  balance : bool;
  alpha_override : float option;
}

let default_options =
  { estimation = None; fraction = None; balance = true; alpha_override = None }

type report = {
  subject : string;
  checks : int;
  diagnostics : diagnostic list;
}

let ok r = r.diagnostics = []

let pp_report ppf r =
  if ok r then
    Format.fprintf ppf "%s: ok (%d check groups)" r.subject r.checks
  else
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list I.pp)
      r.diagnostics

let diag ~where ~invariant fmt =
  Printf.ksprintf
    (fun message -> { invariant; location = where; message })
    fmt

(* ------------------------------------------------------------------ *)
(* Configuration.                                                      *)

let check_config ~where (cfg : Machine.Config.t) =
  match Machine.Config.validate cfg with
  | Error e -> [ diag ~where ~invariant:"machine-config" "%s" e ]
  | Ok () -> I.region_grid ~where cfg (Locmap.Region.create cfg)

(* ------------------------------------------------------------------ *)
(* IR well-formedness.                                                 *)

(* The affine range of [e] over the loop-domain ranges [(var, lo, hi)]
   (hi inclusive — the last value the variable actually takes). *)
let affine_range e ranges =
  List.fold_left
    (fun (lo, hi) (v, vlo, vhi) ->
      let c = Ir.Affine.coeff e v in
      if c >= 0 then (lo + (c * vlo), hi + (c * vhi))
      else (lo + (c * vhi), hi + (c * vlo)))
    (Ir.Affine.constant_part e, Ir.Affine.constant_part e)
    ranges

let loop_ranges (prog : Ir.Program.t) (n : Ir.Loop_nest.t) =
  (Ir.Trace.step_var, 0, prog.Ir.Program.time_steps - 1)
  :: List.map
       (fun (l : Ir.Loop_nest.loop) ->
         (l.var, l.lo, l.lo + ((Ir.Loop_nest.trip l - 1) * l.step)))
       (n.par :: n.inner)

let check_loop ~where (l : Ir.Loop_nest.loop) =
  if l.step <= 0 then
    [
      diag ~where ~invariant:"loop-domain" "loop %s has non-positive step %d"
        l.var l.step;
    ]
  else if l.hi <= l.lo then
    [
      diag ~where ~invariant:"loop-domain" "loop %s has empty domain [%d, %d)"
        l.var l.lo l.hi;
    ]
  else []

let check_access ~where prog n (a : Ir.Access.t) =
  let decl = Ir.Program.array_decl prog a.Ir.Access.array_name in
  let ranges = loop_ranges prog n in
  match a.Ir.Access.index with
  | Ir.Access.Direct e ->
      let lo, hi = affine_range e ranges in
      if lo < 0 || hi >= decl.Ir.Program.length then
        [
          diag ~where ~invariant:"affine-bounds"
            "affine index of %s ranges over [%d, %d] but the array has %d \
             elements"
            a.Ir.Access.array_name lo hi decl.Ir.Program.length;
        ]
      else []
  | Ir.Access.Indirect { table; pos; offset } ->
      let tbl = Ir.Program.find_table prog table in
      let plo, phi = affine_range pos ranges in
      let pos_bad =
        if plo < 0 || phi >= Array.length tbl then
          [
            diag ~where ~invariant:"index-domain"
              "position into index table %s ranges over [%d, %d] but the \
               table has %d entries"
              table plo phi (Array.length tbl);
          ]
        else []
      in
      let elem_bad =
        if Array.length tbl = 0 then []
        else begin
          let tmin = Array.fold_left min tbl.(0) tbl in
          let tmax = Array.fold_left max tbl.(0) tbl in
          let olo, ohi = affine_range offset ranges in
          if tmin + olo < 0 || tmax + ohi >= decl.Ir.Program.length then
            [
              diag ~where ~invariant:"indirect-bounds"
                "values of index table %s (range [%d, %d]) plus offset \
                 (range [%d, %d]) can index %s outside its %d elements"
                table tmin tmax olo ohi a.Ir.Access.array_name
                decl.Ir.Program.length;
            ]
          else []
        end
      in
      pos_bad @ elem_bad

let check_program ~where (prog : Ir.Program.t) =
  I.all
    (List.mapi
       (fun k (n : Ir.Loop_nest.t) ->
         let wn = Printf.sprintf "%s: nest %d (%s)" where k n.name in
         I.all
           (I.all (List.map (check_loop ~where:wn) (n.par :: n.inner))
           :: List.mapi
                (fun i a ->
                  check_access
                    ~where:(Printf.sprintf "%s, access %d" wn i)
                    prog n a)
                n.body))
       prog.Ir.Program.nests)

(* ------------------------------------------------------------------ *)
(* Mapping artifacts.                                                  *)

let nest_iterations (prog : Ir.Program.t) =
  Array.of_list (List.map Ir.Loop_nest.iterations prog.Ir.Program.nests)

let check_info ~where ?(balanced = true) (cfg : Machine.Config.t) prog
    (info : Locmap.Mapper.info) =
  let regions = Locmap.Region.create cfg in
  let num_regions = Locmap.Region.count regions in
  let baseline_total =
    match
      Machine.Schedule.validate info.Locmap.Mapper.baseline
        ~num_cores:(Machine.Config.num_cores cfg)
    with
    | Ok () -> []
    | Error e ->
        [ diag ~where:(where ^ ": baseline") ~invariant:"schedule-total" "%s" e ]
  in
  I.all
    [
      I.partition ~where ~nest_iterations:(nest_iterations prog)
        info.Locmap.Mapper.sets;
      I.assignment ~where ~num_regions info.Locmap.Mapper.region_of_set;
      (if balanced then
         I.balance ~where ~num_regions ~sets:info.Locmap.Mapper.sets
           info.Locmap.Mapper.region_of_set
       else []);
      I.placement ~where cfg regions
        ~region_of_set:info.Locmap.Mapper.region_of_set
        info.Locmap.Mapper.schedule;
      baseline_total;
    ]

let check_fallback ~where (cfg : Machine.Config.t) prog
    (fb : Baselines.Fallback.t) =
  let regions = Locmap.Region.create cfg in
  let num_regions = Locmap.Region.count regions in
  I.all
    [
      I.partition ~where ~nest_iterations:(nest_iterations prog)
        fb.Baselines.Fallback.sets;
      I.assignment ~where ~num_regions fb.Baselines.Fallback.region_of_set;
      I.balance ~where ~num_regions ~sets:fb.Baselines.Fallback.sets
        fb.Baselines.Fallback.region_of_set;
      I.placement ~where cfg regions
        ~region_of_set:fb.Baselines.Fallback.region_of_set
        fb.Baselines.Fallback.schedule;
    ]

(* ------------------------------------------------------------------ *)
(* The full battery.                                                   *)

let report ?(options = default_options) ~subject (cfg : Machine.Config.t)
    prog =
  let checks = ref 0 in
  let run c =
    incr checks;
    c ()
  in
  let config_diags = run (fun () -> check_config ~where:subject cfg) in
  let ir_diags =
    run (fun () -> check_program ~where:(subject ^ "/ir") prog)
  in
  (* Running the pipeline on a machine or program already known bad
     would only repeat the diagnosis as an exception. *)
  let pipeline_diags =
    if config_diags <> [] || ir_diags <> [] then []
    else
      run (fun () ->
          try
            let trace = Locmap.Mapper.trace_of_program prog in
            let info =
              Locmap.Mapper.map ?estimation:options.estimation
                ?fraction:options.fraction ~balance:options.balance
                ?alpha_override:options.alpha_override ~measure_error:false
                ~verify:true cfg trace
            in
            check_info ~where:(subject ^ "/pipeline")
              ~balanced:options.balance cfg prog info
          with
          | I.Violation ds -> ds
          | e ->
              [
                diag
                  ~where:(subject ^ "/pipeline")
                  ~invariant:"pipeline-crash" "%s" (Printexc.to_string e);
              ])
  in
  let fallback_diags =
    if config_diags <> [] || ir_diags <> [] then []
    else
      run (fun () ->
          try
            let fb =
              Baselines.Fallback.map ?fraction:options.fraction cfg prog
            in
            check_fallback ~where:(subject ^ "/fallback") cfg prog fb
          with e ->
            [
              diag
                ~where:(subject ^ "/fallback")
                ~invariant:"pipeline-crash" "%s" (Printexc.to_string e);
            ])
  in
  {
    subject;
    checks = !checks;
    diagnostics =
      I.all [ config_diags; ir_diags; pipeline_diags; fallback_diags ];
  }
