(* Tests for the loop-nest IR: affine expressions, nests, programs,
   layout, iteration sets and trace expansion. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let env = function
  | "i" -> 5
  | "j" -> 3
  | "t" -> 0
  | _ -> 0

(* ------------------------------------------------------------------ *)

let test_affine_algebra () =
  let open Ir.Affine in
  let e = add (var ~coeff:4 "i") (add (var "j") (const 7)) in
  check_int "eval" 30 (eval env e);
  check_int "coeff i" 4 (coeff e "i");
  check_int "coeff missing" 0 (coeff e "k");
  check_int "const part" 7 (constant_part e);
  Alcotest.(check (list string)) "vars sorted" [ "i"; "j" ] (vars e);
  let z = sub e e in
  check_bool "x - x = const" true (is_constant z);
  check_int "x - x = 0" 0 (eval env z);
  check_int "scale" 40 (eval env (scale 2 (var ~coeff:4 "i")));
  check_bool "scale 0 is constant" true (is_constant (scale 0 e));
  check_bool "equal normalised" true
    (equal (add (var "i") (var "j")) (add (var "j") (var "i")))

let test_affine_operators () =
  let open Ir.Affine in
  check_int "operators" 17 (eval env (var "i" + (4 * const 3)))

(* ------------------------------------------------------------------ *)

let nest_simple n =
  Ir.Loop_nest.make ~name:"n" ~par:(Ir.Loop_nest.loop "i" ~hi:n)
    [ Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i")) ]

let test_loop_nest_trips () =
  let l = Ir.Loop_nest.loop ~lo:2 ~step:3 "i" ~hi:11 in
  check_int "trip" 3 (Ir.Loop_nest.trip l);
  let n =
    Ir.Loop_nest.make ~name:"n"
      ~par:(Ir.Loop_nest.loop "i" ~hi:10)
      ~inner:[ Ir.Loop_nest.loop "j" ~hi:4; Ir.Loop_nest.loop "k" ~hi:5 ]
      [
        Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i"));
        Ir.Access.write "b" (Ir.Access.direct (Ir.Affine.var "j"));
      ]
  in
  check_int "iterations" 10 (Ir.Loop_nest.iterations n);
  check_int "inner trip" 20 (Ir.Loop_nest.inner_trip n);
  check_int "accesses per par iter" 40 (Ir.Loop_nest.accesses_per_par_iter n);
  check_bool "regular" true (Ir.Loop_nest.is_regular n)

let test_loop_nest_errors () =
  Alcotest.check_raises "empty loop"
    (Invalid_argument "Loop_nest: loop i is empty") (fun () ->
      ignore
        (Ir.Loop_nest.make ~name:"n" ~par:(Ir.Loop_nest.loop "i" ~hi:0) []));
  Alcotest.check_raises "duplicate var"
    (Invalid_argument "Loop_nest.make: duplicate loop variable") (fun () ->
      ignore
        (Ir.Loop_nest.make ~name:"n"
           ~par:(Ir.Loop_nest.loop "i" ~hi:4)
           ~inner:[ Ir.Loop_nest.loop "i" ~hi:4 ]
           []))

(* ------------------------------------------------------------------ *)

let prog_ab ?(time_steps = 1) ?(n = 64) () =
  Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
    ~arrays:
      [
        { Ir.Program.name = "a"; elem_size = 8; length = n };
        { Ir.Program.name = "b"; elem_size = 8; length = n };
      ]
    ~time_steps
    [
      Ir.Loop_nest.make ~name:"n"
        ~par:(Ir.Loop_nest.loop "i" ~hi:n)
        [
          Ir.Access.read "a" (Ir.Access.direct (Ir.Affine.var "i"));
          Ir.Access.write "b" (Ir.Access.direct (Ir.Affine.var "i"));
        ];
    ]

let test_program_validation () =
  Alcotest.check_raises "undeclared array"
    (Invalid_argument "Program.create: reference to undeclared array \"z\"")
    (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
           ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
           [ nest_simple 4 |> fun n -> { n with Ir.Loop_nest.body = [ Ir.Access.read "z" (Ir.Access.direct (Ir.Affine.var "i")) ] } ]));
  Alcotest.check_raises "undeclared table"
    (Invalid_argument "Program.create: reference to undeclared table \"t\"")
    (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Irregular
           ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
           [
             {
               (nest_simple 4) with
               Ir.Loop_nest.body =
                 [ Ir.Access.read "a" (Ir.Access.indirect ~table:"t" ~pos:(Ir.Affine.var "i")) ];
             };
           ]));
  Alcotest.check_raises "duplicate arrays"
    (Invalid_argument "Program.create: duplicate array name") (fun () ->
      ignore
        (Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
           ~arrays:
             [
               { Ir.Program.name = "a"; elem_size = 8; length = 4 };
               { Ir.Program.name = "a"; elem_size = 8; length = 4 };
             ]
           [ nest_simple 4 ]))

let test_program_accessors () =
  let p = prog_ab ~time_steps:3 () in
  check_int "nests" 1 (Ir.Program.num_nests p);
  check_int "arrays" 2 (Ir.Program.num_arrays p);
  check_int "par iterations" 64 (Ir.Program.total_par_iterations p);
  check_int "accesses per step" 128 (Ir.Program.total_accesses_per_step p);
  check_int "footprint" (2 * 8 * 64) (Ir.Program.footprint_bytes p);
  check_int "array decl" 64 (Ir.Program.array_decl p "a").Ir.Program.length

(* ------------------------------------------------------------------ *)

let test_layout () =
  let p = prog_ab ~n:100 () in
  let l = Ir.Layout.allocate ~page_size:2048 p in
  check_int "a at zero" 0 (Ir.Layout.base l "a");
  check_int "a extent page aligned" 2048 (Ir.Layout.extent_bytes l "a");
  check_int "b after a" 2048 (Ir.Layout.base l "b");
  check_int "footprint" 4096 (Ir.Layout.footprint l);
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (Ir.Layout.arrays l);
  let l2 = Ir.Layout.with_base l "b" 8192 in
  check_int "rebased" 8192 (Ir.Layout.base l2 "b");
  check_int "original untouched" 2048 (Ir.Layout.base l "b");
  check_int "footprint follows" (8192 + 2048) (Ir.Layout.footprint l2)

(* ------------------------------------------------------------------ *)

let test_iter_set_partition () =
  let p = prog_ab ~n:100 () in
  let sets = Ir.Iter_set.partition p ~fraction:0.1 in
  check_int "ten sets" 10 (Array.length sets);
  check_int "set size" 10 (Ir.Iter_set.size sets.(0));
  (* Coverage: every iteration in exactly one set. *)
  let seen = Array.make 100 0 in
  Array.iter
    (fun (s : Ir.Iter_set.t) ->
      for i = s.lo to s.hi - 1 do
        seen.(i) <- seen.(i) + 1
      done)
    sets;
  check_bool "exact cover" true (Array.for_all (( = ) 1) seen)

let qcheck_partition_cover =
  QCheck.Test.make ~name:"partition covers iterations exactly once" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 1 100))
    (fun (n, pct) ->
      let p = prog_ab ~n () in
      let sets = Ir.Iter_set.partition p ~fraction:(float_of_int pct /. 100.) in
      let total = Array.fold_left (fun acc s -> acc + Ir.Iter_set.size s) 0 sets in
      total = n
      && Array.for_all (fun (s : Ir.Iter_set.t) -> s.lo < s.hi && s.hi <= n) sets)

(* ------------------------------------------------------------------ *)

let test_trace_emission_order () =
  let p = prog_ab ~n:8 () in
  let l = Ir.Layout.allocate ~page_size:2048 p in
  let t = Ir.Trace.create p l in
  let collected = ref [] in
  Ir.Trace.iter_range t ~nest:0 ~lo:2 ~hi:4 (fun ~addr ~write ->
      collected := (addr, write) :: !collected);
  let base_b = Ir.Layout.base l "b" in
  Alcotest.(check (list (pair int bool)))
    "addresses in program order"
    [ (16, false); (base_b + 16, true); (24, false); (base_b + 24, true) ]
    (List.rev !collected)

let test_trace_fill_matches_iter_range () =
  let p = prog_ab ~n:16 () in
  let l = Ir.Layout.allocate ~page_size:2048 p in
  let t = Ir.Trace.create p l in
  let buf = Array.make (Ir.Trace.accesses_per_par_iter t ~nest:0) 0 in
  let n =
    Ir.Trace.fill_iteration_s t (Ir.Trace.make_scratch t) ~step:0 ~nest:0
      ~iter:3 ~buf
  in
  let via_range = ref [] in
  Ir.Trace.iter_range t ~nest:0 ~lo:3 ~hi:4 (fun ~addr ~write ->
      via_range := (addr, write) :: !via_range);
  let via_fill =
    List.init n (fun k -> (Ir.Trace.decode_addr buf.(k), Ir.Trace.decode_write buf.(k)))
  in
  Alcotest.(check (list (pair int bool))) "same accesses" (List.rev !via_range) via_fill

let test_trace_step_variable () =
  let n = 16 in
  let p =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 2 * n } ]
      ~time_steps:2
      [
        Ir.Loop_nest.make ~name:"n"
          ~par:(Ir.Loop_nest.loop "i" ~hi:n)
          [
            Ir.Access.read "a"
              (Ir.Access.direct
                 Ir.Affine.(add (var "i") (var ~coeff:n Ir.Trace.step_var)));
          ];
      ]
  in
  let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
  let at step =
    let acc = ref [] in
    Ir.Trace.iter_range ~step t ~nest:0 ~lo:0 ~hi:1 (fun ~addr ~write:_ ->
        acc := addr :: !acc);
    List.hd !acc
  in
  check_int "step 0 slice" 0 (at 0);
  check_int "step 1 slice" (n * 8) (at 1)

let test_trace_bounds_check () =
  let mk len =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Regular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = len } ]
      [
        Ir.Loop_nest.make ~name:"bad"
          ~par:(Ir.Loop_nest.loop "i" ~hi:16)
          [ Ir.Access.read "a" (Ir.Access.direct Ir.Affine.(add (var "i") (const 4))) ];
      ]
  in
  (* length 20 accommodates i+4 for i<16; length 16 does not. *)
  let ok = mk 20 in
  ignore (Ir.Trace.create ok (Ir.Layout.allocate ~page_size:2048 ok));
  let bad = mk 16 in
  check_bool "static bounds check fires" true
    (try
       ignore (Ir.Trace.create bad (Ir.Layout.allocate ~page_size:2048 bad));
       false
     with Invalid_argument _ -> true)

let test_trace_indirect_bounds () =
  let p =
    Ir.Program.create ~name:"p" ~kind:Ir.Program.Irregular
      ~arrays:[ { Ir.Program.name = "a"; elem_size = 8; length = 4 } ]
      ~index_tables:[ ("idx", [| 0; 1; 2; 99 |]) ]
      [
        Ir.Loop_nest.make ~name:"n"
          ~par:(Ir.Loop_nest.loop "i" ~hi:4)
          [ Ir.Access.read "a" (Ir.Access.indirect ~table:"idx" ~pos:(Ir.Affine.var "i")) ];
      ]
  in
  let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
  (* Iterations 0-2 are fine; iteration 3 dereferences element 99. *)
  Ir.Trace.iter_range t ~nest:0 ~lo:0 ~hi:3 (fun ~addr:_ ~write:_ -> ());
  check_bool "runtime bounds check fires" true
    (try
       Ir.Trace.iter_range t ~nest:0 ~lo:3 ~hi:4 (fun ~addr:_ ~write:_ -> ());
       false
     with Invalid_argument _ -> true)

let test_trace_fill_scratch_registry () =
  (* The simulator's closure-free fill against iter_range on every
     registry kernel: inner-loop nests of every depth, non-unit steps,
     indirect references, and a non-zero step variable. One scratch is
     shared by all nests of a trace, as the engine shares a core's. *)
  List.iter
    (fun (e : Workloads.Registry.entry) ->
      let p = e.program ~scale:0.05 () in
      let t = Ir.Trace.create p (Ir.Layout.allocate ~page_size:2048 p) in
      let sc = Ir.Trace.make_scratch t in
      let step = p.Ir.Program.time_steps - 1 in
      for nest = 0 to Ir.Trace.num_nests t - 1 do
        let iters = Ir.Trace.iterations t ~nest in
        let buf = Array.make (Ir.Trace.accesses_per_par_iter t ~nest) 0 in
        let stride = max 1 (iters / 7) in
        let iter = ref 0 in
        while !iter < iters do
          let n = Ir.Trace.fill_iteration_s t sc ~step ~nest ~iter:!iter ~buf in
          let want = ref [] in
          Ir.Trace.iter_range ~step t ~nest ~lo:!iter ~hi:(!iter + 1)
            (fun ~addr ~write -> want := (addr, write) :: !want);
          let got =
            List.init n (fun k ->
                (Ir.Trace.decode_addr buf.(k), Ir.Trace.decode_write buf.(k)))
          in
          Alcotest.(check (list (pair int bool)))
            (Printf.sprintf "%s nest %d iter %d" e.name nest !iter)
            (List.rev !want) got;
          iter := !iter + stride
        done
      done)
    Workloads.Registry.all

let () =
  Alcotest.run "ir"
    [
      ( "affine",
        [
          Alcotest.test_case "algebra" `Quick test_affine_algebra;
          Alcotest.test_case "operators" `Quick test_affine_operators;
        ] );
      ( "loop_nest",
        [
          Alcotest.test_case "trips" `Quick test_loop_nest_trips;
          Alcotest.test_case "errors" `Quick test_loop_nest_errors;
        ] );
      ( "program",
        [
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "accessors" `Quick test_program_accessors;
        ] );
      ("layout", [ Alcotest.test_case "allocation" `Quick test_layout ]);
      ( "iter_set",
        [
          Alcotest.test_case "partition" `Quick test_iter_set_partition;
          QCheck_alcotest.to_alcotest qcheck_partition_cover;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emission order" `Quick test_trace_emission_order;
          Alcotest.test_case "fill = iter_range" `Quick test_trace_fill_matches_iter_range;
          Alcotest.test_case "scratch fill = iter_range (registry)" `Quick
            test_trace_fill_scratch_registry;
          Alcotest.test_case "step variable" `Quick test_trace_step_variable;
          Alcotest.test_case "static bounds" `Quick test_trace_bounds_check;
          Alcotest.test_case "indirect bounds" `Quick test_trace_indirect_bounds;
        ] );
    ]
