(* Tests for the analysis fast path: line-memoized address maps,
   the periodic/chunked trace walkers behind them, domain-parallel CME
   summaries, and the golden Mapper.map fixture that pins the public
   pipeline behaviour to the pre-fast-path seed. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let shared_cfg = { Machine.Config.default with llc_org = Cache.Llc.Shared }

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

(* ------------------------------------------------------------------ *)
(* Parallel = sequential: every registry workload, every field, at
   1/2/4/8 domains (1 = inline pool, no domains spawned). *)

let test_parallel_matches_sequential () =
  let pools =
    List.map
      (fun d -> (d, Par.Pool.create ~num_domains:(if d <= 1 then 0 else d) ()))
      [ 1; 2; 4; 8 ]
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (_, p) -> Par.Pool.shutdown p) pools)
    (fun () ->
      List.iter
        (fun llc ->
          let cfg = { Machine.Config.default with llc_org = llc } in
          List.iter
            (fun name ->
              let prog, trace = prepare name in
              let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
              let amap = Machine.Addr_map.create cfg pt in
              let sets = partition prog cfg in
              let seq = Locmap.Analysis.cme_summaries cfg amap trace ~sets in
              List.iter
                (fun (d, pool) ->
                  let par =
                    Locmap.Analysis.cme_summaries ~pool cfg amap trace ~sets
                  in
                  check_bool
                    (Printf.sprintf "%s: %d domains = sequential" name d)
                    true
                    (summaries_equal seq par))
                pools)
            Workloads.Registry.names)
        [ Cache.Llc.Shared; Cache.Llc.Private ])

(* ------------------------------------------------------------------ *)
(* Memo versus address map: the period table must answer exactly like
   the direct map. Each check compares translate, bank, region and MC
   of a line against direct Addr_map calls, and the prefix range
   counts against brute-force counts of the same lines. *)

(* Builds a memo and checks it against its address map: every line of
   the footprint plus 64 lines past its end, and [ranges] random
   [lo, hi) count queries. [ctx] names the case in failures. *)
let check_memo ~ctx ~rng ~ranges (cfg : Machine.Config.t) amap layout =
  let memo = Locmap.Line_memo.create cfg amap layout in
  let regions = Locmap.Region.create cfg in
  let line = cfg.l2_line in
  let num_lines = Locmap.Line_memo.num_lines memo in
  let fail what va want got =
    Alcotest.failf "%s: %s of va %d: address map %d, memo %d" ctx what va
      want got
  in
  let check_line l =
    (* The line's first and last byte: both resolve to the line. *)
    List.iter
      (fun va ->
        let pa = Machine.Addr_map.translate amap va in
        let got = Locmap.Line_memo.translate memo va in
        if got <> pa then fail "translate" va pa got;
        let node = Machine.Addr_map.bank_node_of amap pa in
        let got = Locmap.Line_memo.bank_node_of memo va in
        if got <> node then fail "bank" va node got;
        let region = Locmap.Region.of_node regions node in
        let got = Locmap.Line_memo.region_of memo va in
        if got <> region then fail "region" va region got;
        let mc = Machine.Addr_map.mc_of amap pa in
        let got = Locmap.Line_memo.mc_of memo va in
        if got <> mc then fail "mc" va mc got)
      [ l * line; (l * line) + line - 1 ]
  in
  for l = 0 to num_lines + 63 do
    check_line l
  done;
  if Locmap.Line_memo.prefix_available memo then
    for _ = 1 to ranges do
      let lo = Random.State.int rng (num_lines + 1) in
      let hi = min num_lines (lo + Random.State.int rng 4097) in
      let weight = 1 + Random.State.int rng 3 in
      let mcs = Array.make (Locmap.Line_memo.num_mcs memo) 0 in
      let rgs = Array.make (Locmap.Line_memo.num_regions memo) 0 in
      Locmap.Line_memo.add_mc_line_counts memo ~lo ~hi ~weight mcs;
      Locmap.Line_memo.add_region_line_counts memo ~lo ~hi ~weight rgs;
      let want_mcs = Array.make (Array.length mcs) 0 in
      let want_rgs = Array.make (Array.length rgs) 0 in
      for l = lo to hi - 1 do
        let pa = Machine.Addr_map.translate amap (l * line) in
        let m = Machine.Addr_map.mc_of amap pa in
        let r =
          Locmap.Region.of_node regions (Machine.Addr_map.bank_node_of amap pa)
        in
        want_mcs.(m) <- want_mcs.(m) + weight;
        want_rgs.(r) <- want_rgs.(r) + weight
      done;
      if mcs <> want_mcs || rgs <> want_rgs then
        Alcotest.failf "%s: line counts over [%d, %d) differ from brute force"
          ctx lo hi
    done;
  memo

(* Registry layer: every line of every registry kernel's footprint, on
   the default machine with private and shared LLCs. *)
let test_line_memo_matches_addr_map () =
  let rng = Random.State.make [| 0x11ce |] in
  List.iter
    (fun name ->
      let _, trace = prepare name in
      let layout = Ir.Trace.layout trace in
      List.iter
        (fun llc_org ->
          let cfg = { Machine.Config.default with llc_org } in
          let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
          let amap = Machine.Addr_map.create cfg pt in
          let memo =
            check_memo ~ctx:name ~rng ~ranges:20 cfg amap layout
          in
          check_bool (name ^ ": memoized") true
            (Locmap.Line_memo.memoized memo))
        [ Cache.Llc.Private; Cache.Llc.Shared ])
    Workloads.Registry.names

(* Random-config layer. Config [seed] fixes the mesh, MC placement,
   page and line sizes, both interleaving grains, the cluster mode
   (seed mod 4 and (seed / 4) mod 4 cover every mode and grain pair)
   and the page-table state: 0-16 remapped pages, and SNC-4 domains on
   every other SNC-4 seed. Seed 0 is the page-grain-LLC 4x4 mesh whose
   bank period (512 lines) is not the lcm of node count and MC span.
   Set LOCMAP_MEMO_SEED to replay one seed. *)
let random_memo_case progs seed =
  let rng = Random.State.make [| 0x9e3; seed |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let int_in lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let divisors n = List.filter (fun d -> n mod d = 0) (List.init n succ) in
  let grain g = if g = 0 then Mem.Distribution.Page_grain else Line_grain in
  let cluster =
    List.nth
      Mem.Distribution.[ Mesh_default; All_to_all; Quadrant; Snc4 ]
      (seed mod 4)
  in
  let cfg =
    if seed = 0 then
      {
        Machine.Config.default with
        rows = 4;
        cols = 4;
        region_h = 2;
        region_w = 2;
        page_size = 2048;
        l2_line = 64;
        llc_org = Cache.Llc.Shared;
        dist =
          {
            mem_gran = Page_grain;
            llc_gran = Page_grain;
            cluster = Mesh_default;
          };
      }
    else begin
      let rows = int_in 2 8 and cols = int_in 2 8 in
      let mc_placement =
        match Random.State.int rng 3 with
        | 0 -> Noc.Topology.Corners
        | 1 -> Noc.Topology.Edge_midpoints
        | _ ->
            let k = int_in 1 (min 7 (rows * cols)) in
            let nodes = Array.init (rows * cols) Fun.id in
            for i = Array.length nodes - 1 downto 1 do
              let j = Random.State.int rng (i + 1) in
              let x = nodes.(i) in
              nodes.(i) <- nodes.(j);
              nodes.(j) <- x
            done;
            Noc.Topology.Custom
              (List.init k (fun i ->
                   Noc.Coord.make ~row:(nodes.(i) / cols)
                     ~col:(nodes.(i) mod cols)))
      in
      {
        Machine.Config.default with
        rows;
        cols;
        region_h = pick (divisors rows);
        region_w = pick (divisors cols);
        mc_placement;
        page_size = pick [ 1024; 2048; 4096 ];
        l2_line = pick [ 32; 64; 128 ];
        llc_org = pick [ Cache.Llc.Private; Cache.Llc.Shared ];
        dist =
          {
            mem_gran = grain (seed / 4 mod 2);
            llc_gran = grain (seed / 8 mod 2);
            cluster;
          };
      }
    end
  in
  let layout =
    Ir.Layout.allocate ~page_size:cfg.page_size (pick progs)
  in
  let pages = (Ir.Layout.footprint layout + cfg.page_size - 1) / cfg.page_size in
  let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
  let remaps = if seed mod 3 = 0 then 0 else int_in 1 16 in
  for _ = 1 to remaps do
    (* Targets may leave the footprint, and runs of consecutive pages
       keep some physical contiguity across a remapped block. *)
    let vpage = Random.State.int rng (pages + 2) in
    let ppage = Random.State.int rng ((2 * pages) + 8) in
    for k = 0 to Random.State.int rng 3 do
      Mem.Page_table.remap_page pt ~vpage:(vpage + k) ~ppage:(ppage + k)
    done
  done;
  if cluster = Mem.Distribution.Snc4 && seed / 4 mod 2 = 1 then
    for _ = 1 to int_in 1 8 do
      Mem.Page_table.set_domain pt
        ~vpage:(Random.State.int rng (2 * pages))
        (Random.State.int rng 4)
    done;
  let amap = Machine.Addr_map.create cfg pt in
  let ctx =
    Format.asprintf "config seed %d (%dx%d, %d MCs, %a, page %d, line %d)"
      seed cfg.rows cfg.cols (Machine.Config.num_mcs cfg) Mem.Distribution.pp
      cfg.dist cfg.page_size cfg.l2_line
  in
  ignore (check_memo ~ctx ~rng ~ranges:12 cfg amap layout)

let test_line_memo_random_configs () =
  let progs =
    List.map (fun name -> fst (prepare ~scale:0.05 name)) [ "mxm"; "moldyn" ]
  in
  match Sys.getenv_opt "LOCMAP_MEMO_SEED" with
  | Some s -> random_memo_case progs (int_of_string s)
  | None ->
      for seed = 0 to 255 do
        random_memo_case progs seed
      done

(* ------------------------------------------------------------------ *)
(* Fast-path summaries satisfy the semantic verifier's invariants. *)

let test_fast_path_summaries_invariants () =
  List.iter
    (fun name ->
      let prog, trace = prepare name in
      let cfg = shared_cfg in
      let pt = Mem.Page_table.create ~page_size:cfg.page_size () in
      let amap = Machine.Addr_map.create cfg pt in
      let sets = partition prog cfg in
      let summaries = Locmap.Analysis.cme_summaries cfg amap trace ~sets in
      check_int (name ^ ": no diagnostics") 0
        (List.length
           (Locmap.Invariant.summaries ~where:(name ^ "/cme") summaries));
      let cold, warm =
        Locmap.Analysis.observed_summaries cfg amap trace ~sets
      in
      check_int (name ^ ": cold observed clean") 0
        (List.length (Locmap.Invariant.summaries ~where:"cold" cold));
      check_int (name ^ ": warm observed clean") 0
        (List.length (Locmap.Invariant.summaries ~where:"warm" warm)))
    [ "fft"; "nbf" ]

(* ------------------------------------------------------------------ *)
(* Cme.seek must reproduce the streamed classifier state at any
   iteration boundary. *)

let test_seek_equals_streaming () =
  let prog, trace = prepare "mxm" in
  let cfg = shared_cfg in
  let layout = Ir.Trace.layout trace in
  let appi = Ir.Trace.accesses_per_par_iter trace ~nest:0 in
  let iterations = Ir.Trace.iterations trace ~nest:0 in
  List.iter
    (fun k ->
      let k = min k (iterations - 1) in
      let streamed = Cme.create cfg prog layout ~nest:0 in
      for _ = 1 to k * appi do
        ignore (Cme.classify streamed)
      done;
      let sought = Cme.create cfg prog layout ~nest:0 in
      Cme.seek sought ~iteration:k;
      for i = 1 to 2 * appi do
        let a = Cme.classify streamed and b = Cme.classify sought in
        check_bool
          (Printf.sprintf "outcome %d after seek %d" i k)
          true (a = b)
      done)
    [ 0; 1; 7; 100 ];
  Alcotest.check_raises "negative seek"
    (Invalid_argument "Cme.seek: negative iteration") (fun () ->
      Cme.seek (Cme.create cfg prog layout ~nest:0) ~iteration:(-1))

(* ------------------------------------------------------------------ *)
(* Trace walkers: the flat buffer, the periodic per-reference walk and
   the line-block walk must all agree with the closure-based
   program-order enumeration. *)

let collect_range trace ~nest ~lo ~hi =
  let out = ref [] in
  Ir.Trace.iter_range trace ~nest ~lo ~hi (fun ~addr ~write ->
      out := (addr, write) :: !out);
  List.rev !out

let test_fill_range_matches_iter_range () =
  let _, trace = prepare ~scale:0.05 "jacobi-3d" in
  let appi = Ir.Trace.accesses_per_par_iter trace ~nest:0 in
  let lo = 3 and hi = 17 in
  let buf = Array.make ((hi - lo) * appi) 0 in
  let n = Ir.Trace.fill_range trace ~nest:0 ~lo ~hi ~buf in
  let expected = collect_range trace ~nest:0 ~lo ~hi in
  check_int "count" (List.length expected) n;
  List.iteri
    (fun i (addr, write) ->
      check_int (Printf.sprintf "addr %d" i) addr
        (Ir.Trace.decode_addr buf.(i));
      check_bool
        (Printf.sprintf "write %d" i)
        write
        (Ir.Trace.decode_write buf.(i)))
    expected

(* Program-order accesses of one body reference with its execution
   counter, derived from the full stream: accesses cycle through the
   body references, so reference [r] owns stream positions r, r+nbody,
   r+2*nbody, ... *)
let body_stream trace ~nest ~body ~nbody ~hi =
  let all = collect_range trace ~nest ~lo:0 ~hi:(Ir.Trace.iterations trace ~nest) in
  List.filteri (fun i _ -> i mod nbody = body) all
  |> List.filteri (fun exec _ -> exec < hi)
  |> List.mapi (fun exec (addr, _) -> (exec, addr))

let test_iter_body_periodic_matches_stream () =
  let prog, trace = prepare ~scale:0.05 "mxm" in
  let cfg = shared_cfg in
  let layout = Ir.Trace.layout trace in
  let p = Cme.create cfg prog layout ~nest:0 in
  let nbody = Cme.num_refs p in
  let inner_trip = Cme.inner_trip p in
  let hi = min (8 * inner_trip) (Ir.Trace.iterations trace ~nest:0 * inner_trip) in
  for body = 0 to nbody - 1 do
    List.iter
      (fun (first, period) ->
        let got = ref [] in
        Ir.Trace.iter_body_periodic trace ~nest:0 ~body ~first ~hi ~period
          (fun ~exec ~addr -> got := (exec, addr) :: !got);
        let expected =
          body_stream trace ~nest:0 ~body ~nbody ~hi
          |> List.filter (fun (exec, _) ->
                 exec >= first && (exec - first) mod period = 0)
        in
        check_bool
          (Printf.sprintf "body %d first %d period %d" body first period)
          true
          (List.rev !got = expected))
      [ (0, 1); (0, 3); (5, 7); (inner_trip, inner_trip) ]
  done

let test_iter_body_line_blocks_counts () =
  let prog, trace = prepare ~scale:0.05 "jacobi-3d" in
  let cfg = shared_cfg in
  let layout = Ir.Trace.layout trace in
  let p = Cme.create cfg prog layout ~nest:0 in
  let line = 64 in
  let iters = Ir.Trace.iterations trace ~nest:0 in
  let lo = 2 and hi = min iters 40 in
  for body = 0 to Cme.num_refs p - 1 do
    (* Per-line access counts from the block walk... *)
    let blocks = Hashtbl.create 64 in
    let total = ref 0 in
    Ir.Trace.iter_body_line_blocks trace ~nest:0 ~body ~lo ~hi ~line
      (fun ~addr ~count ->
        check_bool "positive count" true (count > 0);
        let l = addr / line in
        Hashtbl.replace blocks l
          (count + Option.value ~default:0 (Hashtbl.find_opt blocks l));
        total := !total + count);
    (* ...must equal the per-line counts of the dense program-order
       enumeration restricted to this reference. *)
    let expected = Hashtbl.create 64 in
    let n = ref 0 in
    let nbody = Cme.num_refs p in
    List.iteri
      (fun i (addr, _) ->
        if i mod nbody = body then begin
          let l = addr / line in
          Hashtbl.replace expected l
            (1 + Option.value ~default:0 (Hashtbl.find_opt expected l));
          incr n
        end)
      (collect_range trace ~nest:0 ~lo ~hi);
    check_int (Printf.sprintf "body %d total" body) !n !total;
    check_int
      (Printf.sprintf "body %d distinct lines" body)
      (Hashtbl.length expected) (Hashtbl.length blocks);
    Hashtbl.iter
      (fun l c ->
        check_int (Printf.sprintf "body %d line %d" body l) c
          (Option.value ~default:(-1) (Hashtbl.find_opt blocks l)))
      expected
  done

(* ------------------------------------------------------------------ *)
(* Golden pin: Mapper.map's public behaviour on every registry workload
   and both LLC organisations is byte-identical to the fixture captured
   from the pre-fast-path seed. Keep the formatting in sync with
   tools/gen_golden.ml, which regenerates the fixture. *)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let golden_of_info name llc (info : Locmap.Mapper.info) =
  let b = Buffer.create 256 in
  Printf.bprintf b "== %s llc=%s ==\n" name llc;
  Printf.bprintf b "estimation=%s\n"
    (match info.estimation with
    | Locmap.Mapper.Cme_estimate -> "cme"
    | Locmap.Mapper.Inspector -> "inspector"
    | Locmap.Mapper.Oracle -> "oracle");
  Printf.bprintf b "sets=%d\n" (Array.length info.sets);
  Printf.bprintf b "region_of_set=%s\n" (ints info.region_of_set);
  Printf.bprintf b "pre_balance=%s\n" (ints info.pre_balance_region);
  for c = 0 to 1023 do
    match Machine.Schedule.sets_of_core info.schedule ~core:c with
    | [] -> ()
    | ss ->
        Printf.bprintf b "core%d=%s\n" c
          (String.concat ";"
             (List.map
                (fun (s : Ir.Iter_set.t) ->
                  Printf.sprintf "%d/%d-%d" s.nest s.lo s.hi)
                ss))
  done;
  Printf.bprintf b
    "moved=%.6f alpha=%.9f mai_err=%.9f cai_err=%.9f overhead=%d\n"
    info.moved_fraction info.alpha_mean info.mai_error info.cai_error
    info.overhead_cycles;
  Buffer.contents b

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_mapper_golden () =
  let fixture =
    let candidates =
      [ "fixtures/golden_mapper.txt"; "test/fixtures/golden_mapper.txt" ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> read_file p
    | None -> Alcotest.fail "golden_mapper.txt fixture not found"
  in
  let b = Buffer.create (String.length fixture) in
  List.iter
    (fun llc ->
      List.iter
        (fun name ->
          let p = Harness.Experiment.prepare_name ~scale:0.2 name in
          let cfg = { Machine.Config.default with llc_org = llc } in
          let info = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
          Buffer.add_string b
            (golden_of_info name
               (match llc with
               | Cache.Llc.Private -> "private"
               | Cache.Llc.Shared -> "shared")
               info))
        Workloads.Registry.names)
    [ Cache.Llc.Private; Cache.Llc.Shared ];
  let got = Buffer.contents b in
  if String.equal got fixture then ()
  else begin
    (* Report the first diverging line, not half a megabyte. *)
    let gl = String.split_on_char '\n' got in
    let fl = String.split_on_char '\n' fixture in
    let rec first_diff i = function
      | g :: gs, f :: fs ->
          if String.equal g f then first_diff (i + 1) (gs, fs)
          else Alcotest.failf "line %d differs:\n  got      %s\n  fixture  %s" i g f
      | [], f :: _ -> Alcotest.failf "output short at line %d (fixture: %s)" i f
      | g :: _, [] -> Alcotest.failf "output long at line %d (got: %s)" i g
      | [], [] -> Alcotest.fail "contents differ but lines match?"
    in
    first_diff 1 (gl, fl)
  end

(* Mapper with a pool must also be byte-identical — the golden test
   covers the no-pool call; this covers the pooled one. *)
let test_mapper_pool_identical () =
  let p = Harness.Experiment.prepare_name ~scale:0.1 "mxm" in
  let cfg = shared_cfg in
  let without = Locmap.Mapper.map cfg p.Harness.Experiment.trace in
  let pool = Par.Pool.create ~num_domains:4 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let with_pool = Locmap.Mapper.map ~pool cfg p.Harness.Experiment.trace in
      check_bool "schedules equal" true
        (without.schedule.core_of = with_pool.schedule.core_of);
      check_bool "regions equal" true
        (without.region_of_set = with_pool.region_of_set);
      Alcotest.(check (float 0.)) "alpha" without.alpha_mean with_pool.alpha_mean;
      Alcotest.(check (float 0.)) "mai" without.mai_error with_pool.mai_error;
      Alcotest.(check (float 0.)) "cai" without.cai_error with_pool.cai_error)

let () =
  Alcotest.run "analysis"
    [
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential (all workloads, 1/2/4/8)"
            `Quick test_parallel_matches_sequential;
          Alcotest.test_case "mapper with pool identical" `Quick
            test_mapper_pool_identical;
        ] );
      ( "line-memo",
        [
          Alcotest.test_case "memo = direct address map" `Quick
            test_line_memo_matches_addr_map;
          Alcotest.test_case "memo = direct address map (random configs)"
            `Quick test_line_memo_random_configs;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "fast-path summaries verify" `Quick
            test_fast_path_summaries_invariants;
        ] );
      ( "cme",
        [
          Alcotest.test_case "seek = streaming" `Quick
            test_seek_equals_streaming;
        ] );
      ( "trace-walkers",
        [
          Alcotest.test_case "fill_range = iter_range" `Quick
            test_fill_range_matches_iter_range;
          Alcotest.test_case "iter_body_periodic = stream subsequence" `Quick
            test_iter_body_periodic_matches_stream;
          Alcotest.test_case "iter_body_line_blocks counts" `Quick
            test_iter_body_line_blocks_counts;
        ] );
      ( "golden",
        [
          Alcotest.test_case "Mapper.map pinned to seed fixture" `Quick
            test_mapper_golden;
        ] );
    ]
