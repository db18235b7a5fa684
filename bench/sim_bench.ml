(* Simulator hot-path benchmark: the discrete-event engine alone over
   the cases of the evaluation path (nine kernels, half regular and half
   irregular, on a private and a shared LLC at scale 0.25, each under
   the Default and the Location_aware schedule).

     dune exec bench/sim_bench.exe                  # or: make bench-sim
     dune exec bench/sim_bench.exe -- --smoke       # CI gate

   Mapping and trace preparation happen outside the measurement; only
   [Machine.Engine.run] is timed. Per case the bench records

     - engine ms (median of three runs, two under --smoke) and ns per
       simulated access;
     - events popped from the global heap per access, and ns per event;
     - minor-heap words allocated per access (first run).

   Wall times are informational. The gates use the deterministic
   counters only: every run of a case must reproduce the first one's
   statistics and event count; minor words per access must stay within
   [words_budget]; and under --smoke, no case may pop more events than
   the committed BENCH_sim.json records for it. A full run writes
   BENCH_sim.json; a smoke run writes nothing. *)

let kernels =
  [ "fft"; "lulesh"; "diff"; "minighost"; "jacobi-3d"; "barnes"; "volrend";
    "equake"; "radix" ]

let smoke_kernels = [ "fft"; "barnes" ]

(* The simulate workload's scale; the smoke run's event counts are
   compared with the committed ones case by case, so both runs use it. *)
let scale = 0.25
let smoke = ref false
let baseline_file = "BENCH_sim.json"

(* Minor-heap words one simulated access may allocate, setup included. *)
let words_budget = 4.0

let usage = "sim_bench.exe [--smoke]"

let args =
  [
    ( "--smoke",
      Arg.Set smoke,
      " CI gate: fft and barnes, two runs each, counters checked" );
  ]

(* Timed runs per case. *)
let repeat () = if !smoke then 2 else 3

let llc_name = function Cache.Llc.Private -> "private" | Cache.Llc.Shared -> "shared"

type case = {
  kernel : string;
  llc : Cache.Llc.org;
  accesses : int;
  events : int;
  minor_words : float;
  ms : float;  (* median engine time of Default + Location_aware *)
}

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let now_ms () = Unix.gettimeofday () *. 1000.

(* One engine run: its result, its wall time, the minor words it allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let t0 = now_ms () in
  let r = f () in
  let ms = now_ms () -. t0 in
  (r, ms, Gc.minor_words () -. w0)

let run_case (p : Harness.Experiment.prepared) llc =
  let cfg = { Machine.Config.default with Machine.Config.llc_org = llc } in
  let trace = p.trace in
  let schedule = Locmap.Mapper.default_schedule cfg trace in
  let pt = Mem.Page_table.create ~page_size:cfg.Machine.Config.page_size () in
  let info = Locmap.Mapper.map ~page_table:pt cfg trace in
  let default () = Machine.Engine.run_single cfg ~trace ~schedule () in
  let la () =
    Machine.Engine.run ~page_table:pt cfg [ Locmap.Mapper.job trace info ]
  in
  let runs =
    List.init (repeat ()) (fun _ ->
        let d, d_ms, d_words = measure default in
        let l, l_ms, l_words = measure la in
        (d, l, d_ms +. l_ms, d_words +. l_words))
  in
  let d, l, _, words = List.hd runs in
  let signature (r : Machine.Engine.result) = (r.stats, r.events) in
  List.iter
    (fun (d', l', _, _) ->
      if signature d' <> signature d || signature l' <> signature l then begin
        Printf.eprintf "FATAL: %s/%s: a repeated run changed the statistics\n"
          p.entry.Workloads.Registry.name (llc_name llc);
        exit 1
      end)
    runs;
  {
    kernel = p.entry.Workloads.Registry.name;
    llc;
    accesses = d.stats.Machine.Stats.accesses + l.stats.Machine.Stats.accesses;
    events = d.events + l.events;
    minor_words = words;
    ms = median (List.map (fun (_, _, ms, _) -> ms) runs);
  }

let per_access c v = v /. float_of_int (max 1 c.accesses)
let ns_per_access c = per_access c (c.ms *. 1e6)

(* Committed event count per "kernel/llc" from a previous full run. *)
let baseline_events file =
  let tbl = Hashtbl.create 32 in
  let text = In_channel.with_open_text file In_channel.input_all in
  let ( let* ) = Result.bind in
  let parsed =
    let* json = Service.Json.of_string text in
    let* cases =
      Option.to_result ~none:"no \"cases\" field" (Service.Json.member "cases" json)
    in
    let* cases = Service.Json.to_list cases in
    List.fold_left
      (fun acc c ->
        let* () = acc in
        let field name =
          Option.to_result ~none:("case without " ^ name) (Service.Json.member name c)
        in
        let* kernel = Result.bind (field "kernel") Service.Json.to_str in
        let* llc = Result.bind (field "llc") Service.Json.to_str in
        let* events = Result.bind (field "events") Service.Json.to_int in
        Hashtbl.replace tbl (kernel ^ "/" ^ llc) events;
        Ok ())
      (Ok ()) cases
  in
  match parsed with
  | Ok () -> tbl
  | Error e ->
      Printf.eprintf "FATAL: cannot read %s: %s\n" file e;
      exit 1

let write_json cases =
  let b = Buffer.create 4096 in
  let total f = List.fold_left (fun acc c -> acc +. f c) 0. cases in
  let accesses = total (fun c -> float_of_int c.accesses) in
  let ms = total (fun c -> c.ms) in
  Buffer.add_string b
    (Printf.sprintf
       "{\"bench\":\"sim\",\"scale\":%g,\"repeat\":%d,\
        \"words_budget\":%g,\n\"cases\":[\n"
       scale (repeat ()) words_budget);
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "{\"kernel\":\"%s\",\"llc\":\"%s\",\"accesses\":%d,\"events\":%d,\
            \"engine_ms\":%.3f,\"ns_per_access\":%.1f,\"ns_per_event\":%.1f,\
            \"events_per_access\":%.4f,\"minor_words_per_access\":%.3f}"
           c.kernel (llc_name c.llc) c.accesses c.events c.ms (ns_per_access c)
           (c.ms *. 1e6 /. float_of_int (max 1 c.events))
           (per_access c (float_of_int c.events))
           (per_access c c.minor_words)))
    cases;
  Buffer.add_string b
    (Printf.sprintf
       "\n],\n\"total\":{\"accesses\":%.0f,\"engine_ms\":%.3f,\
        \"ns_per_access\":%.1f,\"ns_per_event\":%.1f,\"kaccess_per_s\":%.1f,\
        \"events_per_access\":%.4f,\"minor_words_per_access\":%.3f}}\n"
       accesses ms (ms *. 1e6 /. accesses)
       (ms *. 1e6 /. total (fun c -> float_of_int c.events))
       (accesses /. ms)
       (total (fun c -> float_of_int c.events) /. accesses)
       (total (fun c -> c.minor_words) /. accesses));
  Buffer.contents b

let () =
  Arg.parse args (fun a -> raise (Arg.Bad a)) usage;
  let baseline = if !smoke then Some (baseline_events baseline_file) else None in
  let cases =
    List.concat_map
      (fun k ->
        let p = Harness.Experiment.prepare_name ~scale k in
        List.map
          (fun llc ->
            let c = run_case p llc in
            Printf.printf
              "%-10s %-7s %9d accesses %8.1f ms %6.1f ns/access %.3f \
               events/access %.3f words/access\n%!"
              c.kernel (llc_name llc) c.accesses c.ms (ns_per_access c)
              (per_access c (float_of_int c.events))
              (per_access c c.minor_words);
            c)
          [ Cache.Llc.Private; Cache.Llc.Shared ])
      (if !smoke then smoke_kernels else kernels)
  in
  if not !smoke then begin
    let json = write_json cases in
    Out_channel.with_open_text baseline_file (fun oc -> output_string oc json);
    Printf.printf "wrote %s\n" baseline_file
  end;
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        prerr_endline ("FATAL: " ^ s))
      fmt
  in
  List.iter
    (fun c ->
      let name = c.kernel ^ "/" ^ llc_name c.llc in
      let words = per_access c c.minor_words in
      if words > words_budget then
        fail "%s allocates %.2f minor words per access (budget %g)" name words
          words_budget;
      match baseline with
      | None -> ()
      | Some tbl -> (
          match Hashtbl.find_opt tbl name with
          | None -> fail "%s has no committed event count" name
          | Some committed when c.events > committed ->
              fail "%s pops %d events, the committed run %d" name c.events
                committed
          | Some _ -> ()))
    cases;
  if !failures > 0 then exit 1;
  Printf.printf "sim gates ok: %d cases within %g words/access%s\n"
    (List.length cases) words_budget
    (if !smoke then ", events within the committed counts" else "")
