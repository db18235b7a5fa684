(* Custom machines: the mapper only needs the physical location
   information exposed through the configuration, so it adapts to other
   mesh sizes, MC placements and region shapes without change
   (Section 3.9). This example compares the default 6x6/corner machine
   with an 8x8 mesh, edge-midpoint MCs, a different region shape and a
   one-sided custom MC placement, on the same workload.

   Run with: dune exec examples/custom_topology.exe *)

let improvement cfg trace =
  let base =
    Machine.Engine.run_single cfg ~trace
      ~schedule:(Locmap.Mapper.default_schedule cfg trace)
      ()
  in
  let info = Locmap.Mapper.map ~measure_error:false cfg trace in
  let opt = Machine.Engine.run cfg [ Locmap.Mapper.job trace info ] in
  let pct a b = 100. *. (1. -. (float_of_int b /. float_of_int a)) in
  ( pct base.stats.net_latency opt.stats.net_latency,
    pct base.stats.cycles opt.stats.cycles )

let () =
  let entry = Workloads.Registry.find "lulesh" in
  let trace = Locmap.Mapper.trace_of_program (entry.program ~scale:0.5 ()) in

  let machines =
    [
      ("6x6, corner MCs (Table 4)", Machine.Config.default);
      ("8x8, corner MCs", { Machine.Config.default with rows = 8; cols = 8 });
      ( "6x6 torus, edge-midpoint MCs",
        {
          Machine.Config.default with
          topology_kind = Noc.Topology.Torus;
          mc_placement = Noc.Topology.Edge_midpoints;
        } );
      ( "6x6, edge-midpoint MCs",
        {
          Machine.Config.default with
          mc_placement = Noc.Topology.Edge_midpoints;
        } );
      ( "6x6, 3x2-node regions (6 regions)",
        { Machine.Config.default with region_h = 3; region_w = 2 } );
      ( "4x4 mesh, MCs on one side",
        {
          Machine.Config.default with
          rows = 4;
          cols = 4;
          mc_placement =
            Noc.Topology.Custom
              [
                Noc.Coord.make ~row:0 ~col:0;
                Noc.Coord.make ~row:1 ~col:0;
                Noc.Coord.make ~row:2 ~col:0;
                Noc.Coord.make ~row:3 ~col:0;
              ];
        } );
    ]
  in
  Printf.printf "%-36s %18s %16s\n" "machine" "network latency"
    "execution time";
  List.iter
    (fun (label, cfg) ->
      match Machine.Config.validate cfg with
      | Error e -> Printf.printf "%-36s invalid: %s\n" label e
      | Ok () ->
          let net, time = improvement cfg trace in
          Printf.printf "%-36s %+17.1f%% %+15.1f%%\n" label net time)
    machines
