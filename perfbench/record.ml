(* Writes the committed references: the digest of every response a
   map-* or serve-zipf run can draw (each one first passing the
   semantic verifier) and the simulated statistics of every simulate
   case. Run it only to re-baseline, on a commit whose outputs are
   known good:

     dune exec perfbench/bench.exe -- record --expected perfbench/expected

   (add --workload W to re-record one workload). *)

let digests dir workload lines =
  let api = Service.Api.create () in
  let out =
    List.map
      (fun line ->
        let response, _ = Mapwl.submit api line in
        (match Check.semantic ~line ~response with
        | Ok () -> ()
        | Error e -> failwith (Printf.sprintf "%s: %s" line e));
        Printf.sprintf "%s %s" (Util.digest line) (Util.digest response))
      lines
  in
  Util.write_file (Universe.digests_file dir workload)
    (String.concat "\n" out ^ "\n");
  Printf.eprintf "%s: %d digests\n%!" workload (List.length out)

let stats dir =
  let out =
    List.concat_map
      (fun (kernel, llc) ->
        let p = Harness.Experiment.prepare_name ~scale:Universe.sim_scale kernel in
        Harness.Experiment.clear_cache ();
        let cfg = Simwl.cfg llc in
        List.map
          (fun (strategy, s) ->
            let o = Harness.Experiment.run cfg p s in
            Printf.sprintf "%s %s" (Universe.stats_key ~kernel ~llc ~strategy)
              (Universe.stats_line o.stats))
          [ ("default", Harness.Experiment.Default);
            ("la", Harness.Experiment.Location_aware) ])
      Universe.sim_cases
  in
  Util.write_file (Universe.stats_file dir) (String.concat "\n" out ^ "\n");
  Printf.eprintf "simulate: %d statistics\n%!" (List.length out)

(* Every workload's references, or only [only]'s. *)
let run ?only dir =
  Util.mkdir_p dir;
  let wanted w = match only with None -> true | Some o -> o = w in
  List.iter
    (fun w -> if wanted w then digests dir w (Universe.map_universe w))
    [ "map-regular"; "map-irregular" ];
  if wanted "serve-zipf" then
    digests dir "serve-zipf" (Array.to_list (Universe.serve_universe ()));
  if wanted "simulate" then stats dir
