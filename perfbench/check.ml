(* Output correctness: a response must decode, be ok, pass the repo's
   semantic verifier ([Verify.check_info]) on the mapping it
   encodes, and match its committed digest byte for byte. *)

let ( let* ) = Result.bind

let int_array j =
  let* items = Service.Json.to_list j in
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* v = Service.Json.to_int x in
      Ok (v :: acc))
    items (Ok [])
  |> Result.map Array.of_list

let field name j =
  match Service.Json.member name j with
  | Some v -> Ok v
  | None -> Error ("response lacks " ^ name)

(* Programs are pure functions of (kernel, scale): synthesise each once
   per run. *)
let programs : (string * float, Ir.Program.t) Hashtbl.t = Hashtbl.create 64

let program (req : Service.Request.t) =
  let key = (req.workload, req.scale) in
  match Hashtbl.find_opt programs key with
  | Some p -> p
  | None ->
      let p =
        (Workloads.Registry.find req.workload).program ~scale:req.scale ()
      in
      Hashtbl.add programs key p;
      p

(* Rebuilds the mapper artifacts a payload encodes (partition, regions,
   cores, round-robin baseline) and runs the semantic verifier. *)
let semantic ~line ~response =
  let* req = Service.Request.of_string line in
  let* j = Service.Json.of_string response in
  let* ok = Result.bind (field "ok" j) Service.Json.to_bool in
  if not ok then Error ("error response: " ^ response)
  else
    let* r = field "result" j in
    let* num_sets = Result.bind (field "num_sets" r) Service.Json.to_int in
    let* region_of_set = Result.bind (field "region_of_set" r) int_array in
    let* core_of = Result.bind (field "core_of" r) int_array in
    let cfg = req.machine in
    let prog = program req in
    let fraction =
      Option.value req.options.fraction
        ~default:cfg.Machine.Config.iter_set_fraction
    in
    let sets = Ir.Iter_set.partition prog ~fraction in
    if Array.length sets <> num_sets
       || Array.length region_of_set <> num_sets
       || Array.length core_of <> num_sets
    then Error "payload arrays disagree with the partition"
    else
      let info =
        {
          Locmap.Mapper.schedule = Machine.Schedule.make ~sets ~core_of;
          baseline =
            Machine.Schedule.round_robin
              ~num_cores:(Machine.Config.num_cores cfg) sets;
          sets;
          region_of_set;
          pre_balance_region = region_of_set;
          moved_fraction = 0.;
          alpha_mean = 0.;
          mai_error = 0.;
          cai_error = 0.;
          overhead_cycles = 0;
          estimation = Locmap.Mapper.Cme_estimate;
        }
      in
      match
        Verify.check_info ~where:req.workload
          ~balanced:req.options.balance cfg prog info
      with
      | [] -> Ok ()
      | d :: _ ->
          Error
            (Printf.sprintf "%s at %s: %s" d.invariant d.location d.message)

(* Digest check against the committed table (keyed by the digest of
   the request line). *)
let digest digests ~line ~response =
  match Hashtbl.find_opt digests (Util.digest line) with
  | None -> Error ("no committed digest for " ^ line)
  | Some d when d = Util.digest (Universe.normalize_id response) -> Ok ()
  | Some _ -> Error ("response bytes differ from the committed digest: " ^ line)

(* Both checks, the semantic one once per distinct response. Returns
   the number of mismatching responses and reports the first few. *)
let responses digests (pairs : (string * string) list) =
  let seen = Hashtbl.create 1024 in
  let reported = ref 0 in
  List.fold_left
    (fun bad (line, response) ->
      let key = line ^ "\n" ^ Universe.normalize_id response in
      let verdict =
        match Hashtbl.find_opt seen key with
        | Some v -> v
        | None ->
            let v =
              match digest digests ~line ~response with
              | Error e -> Error e
              | Ok () -> (
                  try semantic ~line ~response
                  with e -> Error (Printexc.to_string e))
            in
            Hashtbl.add seen key v;
            v
      in
      match verdict with
      | Ok () -> bad
      | Error e ->
          if !reported < 5 then begin
            incr reported;
            prerr_endline ("mismatch: " ^ e)
          end;
          bad + 1)
    0 pairs
