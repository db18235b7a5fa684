(* The benchmark's entry point (run.py builds and runs it):

     bench.exe --workload W --seed N --seconds S --trace 0|1
       --server PATH/locmap_cli.exe --expected DIR --out-dir DIR [--short]
     bench.exe record --expected DIR [--workload W]

   Prints human-readable notes, then as its last line one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1). Exits 1 when any output mismatches its reference. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let short = ref false
let server = ref ""
let expected = ref "perfbench/expected"
let out_dir = ref ".bench_build/perfbench"
let record = ref false

let args =
  [
    ("--workload", Arg.Set_string workload, "W map-regular, map-irregular, serve-zipf or simulate");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ("--short", Arg.Set short, " tiny inputs, for the benchmark's own tests");
    ("--server", Arg.Set_string server, "PATH the locmap executable serve-zipf starts");
    ("--expected", Arg.Set_string expected, "DIR committed references");
    ("--out-dir", Arg.Set_string out_dir, "DIR where traces and server files go");
  ]

let () =
  Arg.parse args
    (function
      | "record" -> record := true
      | a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 ... | record";
  if !record then
    Record.run ?only:(if !workload = "" then None else Some !workload) !expected
  else begin
    Util.mkdir_p !out_dir;
    let traced = !trace = 1 in
    let seed = !seed and seconds = !seconds and short = !short in
    let expected = !expected and out_dir = !out_dir in
    let (o : Outcome.t) =
      match (!workload, traced) with
      | ("map-regular" | "map-irregular"), false ->
          Mapwl.run ~workload:!workload ~seed ~seconds ~short ~expected
      | ("map-regular" | "map-irregular"), true ->
          Mapwl.run_traced ~workload:!workload ~seed ~seconds ~short ~expected ~out_dir
      | "serve-zipf", false ->
          Servewl.run ~exe:!server ~out_dir ~seed ~seconds ~short ~expected
      | "serve-zipf", true ->
          Servewl.run_traced ~exe:!server ~out_dir ~seed ~seconds ~short ~expected
      | "simulate", false -> Simwl.run ~seed ~seconds ~short ~expected
      | "simulate", true -> Simwl.run_traced ~seed ~seconds ~short ~expected ~out_dir
      | w, _ ->
          prerr_endline ("unknown workload: " ^ w);
          exit 2
    in
    List.iter (fun n -> print_endline ("# " ^ n)) o.notes;
    let metrics =
      if traced then Report.complete Report.per_layer ~default:0. o.metrics
      else Report.complete Report.end_to_end ~default:Report.not_applicable o.metrics
    in
    Report.print ~correct:o.correct ~attempted:o.attempted ~failed:o.failed metrics;
    if not o.correct then exit 1
  end
