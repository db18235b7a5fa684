(* Tests for the AST concurrency lint (Verify.Ast_lint over
   Verify.Ast_source / Callgraph / Lock_analysis / Escape_analysis):
   every rule on inline sources, interprocedural and cross-file
   propagation, guard-wrapper replay, suppression markers, the JSON
   rendering, and the repository gates — the seeded-fixture self-test
   and the pinned-clean scan of the whole tree. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let no_contract =
  { Verify.Ast_lint.default_config with contract_rule = false }

let unit_of ?intf path code =
  { Verify.Ast_lint.src = Verify.Ast_source.load ~path ~code; intf }

let scan ?(config = no_contract) ?intf ?(path = "inline.ml") code =
  Verify.Ast_lint.scan_units ~config [ unit_of ?intf path code ]

let scan2 ?(config = no_contract) (p1, c1) (p2, c2) =
  Verify.Ast_lint.scan_units ~config [ unit_of p1 c1; unit_of p2 c2 ]

let rules fs = List.map (fun (f : Verify.Ast_source.finding) -> f.rule) fs
let has rule fs = List.mem rule (rules fs)

let pp fs =
  String.concat "; "
    (List.map
       (fun (f : Verify.Ast_source.finding) ->
         Printf.sprintf "%s:%d:[%s] %s" f.file f.line f.rule f.message)
       fs)

let contains s sub =
  let ns = String.length s and nn = String.length sub in
  let rec go i = i + nn <= ns && (String.sub s i nn = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* lock-order-cycle *)

let test_abba_cycle () =
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let fwd () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 0))\n\
       let bwd () = Mutex.protect b (fun () -> Mutex.protect a (fun () -> 1))\n"
  in
  check_bool "ABBA nesting flagged" true (has "lock-order-cycle" fs)

let test_consistent_order_clean () =
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let f () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 0))\n\
       let g () = Mutex.protect a (fun () -> Mutex.protect b (fun () -> 1))\n"
  in
  check_int ("consistent order clean: " ^ pp fs) 0 (List.length fs)

let test_cross_file_cycle () =
  (* The conflicting orders live in different files; the cycle only
     exists in the whole-program acquisition graph. *)
  let fs =
    scan2
      ( "a.ml",
        "let m = Mutex.create ()\n\
         let f () = Mutex.protect m (fun () -> Mutex.protect B.m (fun () -> 0))\n"
      )
      ( "b.ml",
        "let m = Mutex.create ()\n\
         let g () = Mutex.protect m (fun () -> Mutex.protect A.m (fun () -> 1))\n"
      )
  in
  check_bool "cross-file ABBA flagged" true (has "lock-order-cycle" fs)

(* ------------------------------------------------------------------ *)
(* double-acquire *)

let test_double_acquire_via_callee () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let size () = Mutex.protect lock (fun () -> 0)\n\
       let add () = Mutex.protect lock (fun () -> size ())\n"
  in
  check_bool "nested call re-acquires" true (has "double-acquire" fs)

let test_sequential_acquire_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let size () = Mutex.protect lock (fun () -> 0)\n\
       let add () = ignore (Mutex.protect lock (fun () -> 1)); size ()\n"
  in
  check_int ("sequential acquire clean: " ^ pp fs) 0 (List.length fs)

(* ------------------------------------------------------------------ *)
(* blocking-under-lock *)

let test_blocking_direct () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let f () = Mutex.protect lock (fun () -> Unix.sleepf 0.1)\n"
  in
  check_bool "sleep under lock flagged" true (has "blocking-under-lock" fs)

let test_blocking_transitive () =
  (* Two hops: f holds the lock, calls g, g calls h, h sleeps. *)
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let h () = Unix.sleepf 0.1\n\
       let g () = h ()\n\
       let f () = Mutex.protect lock (fun () -> g ())\n"
  in
  check_bool "transitive blocking flagged" true (has "blocking-under-lock" fs);
  check_bool "finding names the callee chain" true
    (List.exists
       (fun (f : Verify.Ast_source.finding) ->
         f.rule = "blocking-under-lock" && contains f.message "Unix.sleepf")
       fs)

let test_condition_wait_own_mutex_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let cv = Condition.create ()\n\
       let await p =\n\
      \  Mutex.protect lock (fun () ->\n\
      \      while not (p ()) do Condition.wait cv lock done)\n"
  in
  check_int ("wait on own mutex clean: " ^ pp fs) 0 (List.length fs)

let test_condition_wait_foreign_mutex_flagged () =
  (* Waiting releases [b] but keeps [a] held — the hazard. *)
  let fs =
    scan
      "let a = Mutex.create ()\n\
       let b = Mutex.create ()\n\
       let cv = Condition.create ()\n\
       let bad () =\n\
      \  Mutex.protect a (fun () ->\n\
      \      Mutex.protect b (fun () -> Condition.wait cv b))\n"
  in
  check_bool "second lock held across wait" true (has "blocking-under-lock" fs)

let test_guard_wrapper_replay () =
  (* The lib/service [locked] idiom: the wrapper owns the locking, so
     a closure that blocks must be reported at its call site. *)
  let code =
    "let lock = Mutex.create ()\n\
     let locked f =\n\
    \  Mutex.lock lock;\n\
    \  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f\n\
     let bad () = locked (fun () -> Unix.sleepf 0.1)\n"
  in
  let fs = scan code in
  check_bool "closure replayed under wrapper lock" true
    (has "blocking-under-lock" fs);
  let ok =
    scan
      "let lock = Mutex.create ()\n\
       let locked f =\n\
      \  Mutex.lock lock;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f\n\
       let fine () = locked (fun () -> 42)\n"
  in
  check_int ("non-blocking closure clean: " ^ pp ok) 0 (List.length ok)

let test_async_sink_args_run_unlocked () =
  (* Regression for the lib/par crash-respawn shape: [worker st] is a
     partial application handed to Domain.spawn — it runs on the new
     domain with no locks, not at the spawn site. *)
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let worker st = Unix.sleepf st\n\
       let respawn st =\n\
      \  Mutex.protect lock (fun () -> ignore (Domain.spawn (worker st)))\n"
  in
  check_int ("spawned task not charged to spawner: " ^ pp fs) 0
    (List.length fs)

(* ------------------------------------------------------------------ *)
(* domain-escape *)

let test_escape_unguarded_flagged () =
  let fs =
    scan
      "let hits = ref 0\n\
       let f () = Domain.spawn (fun () -> hits := !hits + 1)\n"
  in
  check_bool "unguarded capture flagged" true (has "domain-escape" fs)

let test_escape_guarded_clean () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let hits = ref 0\n\
       let total = Atomic.make 0\n\
       let f () =\n\
      \  Domain.spawn (fun () ->\n\
      \      Mutex.protect lock (fun () -> hits := !hits + 1);\n\
      \      Atomic.incr total)\n"
  in
  check_int ("guarded and atomic captures clean: " ^ pp fs) 0
    (List.length fs)

let test_escape_captured_local_mutation () =
  (* Not just top-level state: in-place mutation of any captured alias
     counts. *)
  let fs =
    scan
      "let f () =\n\
      \  let q = Queue.create () in\n\
      \  ignore (Domain.spawn (fun () -> Queue.push 1 q));\n\
      \  q\n"
  in
  check_bool "captured local queue mutation flagged" true
    (has "domain-escape" fs)

let test_escape_guard_wrapper () =
  (* Lock state inside the spawned closure is Lock_analysis's, so a
     [Mutex.lock] + [Fun.protect] wrapper guards like [Mutex.protect],
     and a lock released mid-closure stops guarding. *)
  let wrapped =
    scan
      "let m = Mutex.create ()\n\
       let hits = ref 0\n\
       let with_lock f =\n\
      \  Mutex.lock m;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n\
       let f () = Domain.spawn (fun () -> with_lock (fun () -> hits := !hits + 1))\n"
  in
  check_int ("wrapper-guarded capture clean: " ^ pp wrapped) 0
    (List.length wrapped);
  let released =
    scan
      "let m = Mutex.create ()\n\
       let hits = ref 0\n\
       let f () =\n\
      \  Domain.spawn (fun () ->\n\
      \      Mutex.lock m;\n\
      \      incr hits;\n\
      \      Mutex.unlock m;\n\
      \      incr hits)\n"
  in
  check_int ("only the mutation after the unlock: " ^ pp released) 1
    (List.length released);
  check_bool "and it is a domain-escape" true (has "domain-escape" released)

let test_escape_guarded_parameter () =
  (* A captured parameter of the spawning function is guarded like any
     other name: under [Mutex.protect] and under a discovered wrapper. *)
  let fs =
    scan
      "let m = Mutex.create ()\n\
       let with_lock f =\n\
      \  Mutex.lock m;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n\
       let start q l = Domain.spawn (fun () -> Mutex.protect l (fun () -> Queue.push 1 q))\n\
       let start2 q = Domain.spawn (fun () -> with_lock (fun () -> Queue.push 2 q))\n\
       let start3 r = Domain.spawn (fun () -> with_lock (fun () -> incr r))\n"
  in
  check_int ("guarded captured parameters clean: " ^ pp fs) 0
    (List.length fs);
  let bare =
    scan "let start q = Domain.spawn (fun () -> Queue.push 1 q)\n"
  in
  check_bool ("unguarded captured parameter flagged: " ^ pp bare) true
    (has "domain-escape" bare)

(* ------------------------------------------------------------------ *)
(* unguarded-global: top-level mutable state used with no lock held by
   a function that runs on another domain *)

let unguarded fs =
  List.filter
    (fun (f : Verify.Ast_source.finding) -> f.rule = "unguarded-global")
    fs

let test_unguarded_global () =
  let fs =
    scan
      "let cache = Hashtbl.create 64\n\
       let get k = Hashtbl.find cache k\n\
       let run k = Domain.spawn (fun () -> get k)\n"
  in
  match unguarded fs with
  | [ f ] ->
      check_int "on the use line" 2 f.line;
      check_bool "names the binding" true (contains f.message "Inline.cache");
      check_bool "names the spawn chain" true
        (contains f.message "Inline.run -> Inline.get")
  | _ -> Alcotest.failf "expected one unguarded-global: %s" (pp fs)

let test_shadowing_parameter_clean () =
  (* A parameter named like a top-level table is the caller's value,
     not the global. *)
  let fs =
    scan
      "let cache = Hashtbl.create 64\n\
       let get cache k = Hashtbl.find cache k\n\
       let run c k = Domain.spawn (fun () -> get c k)\n"
  in
  check_int ("shadowing parameter clean: " ^ pp fs) 0
    (List.length (unguarded fs))

let test_unguarded_ref () =
  (* A named function handed straight to the sink. *)
  let fs =
    scan
      "let hits = ref 0\n\
       let bump () = incr hits\n\
       let run () = Domain.spawn bump\n"
  in
  check_bool ("global ref flagged: " ^ pp fs) true (has "unguarded-global" fs)

let test_unguarded_two_hop () =
  let fs =
    scan
      "let cache = Hashtbl.create 64\n\
       let lookup k = Hashtbl.find_opt cache k\n\
       let warm ks = List.iter (fun k -> ignore (lookup k)) ks\n\
       let run pool ks = Pool.submit pool (fun () -> warm ks)\n"
  in
  check_bool ("two hops flagged: " ^ pp fs) true (has "unguarded-global" fs)

let test_unguarded_cross_file () =
  let fs =
    scan2
      ("a.ml", "let run k = Thread.create (fun () -> B.get k) ()\n")
      ( "b.ml",
        "let cache = Hashtbl.create 64\n\
         let get k = Hashtbl.find cache k\n" )
  in
  match unguarded fs with
  | [ f ] -> check_bool "reported in the callee's file" true (f.file = "b.ml")
  | _ -> Alcotest.failf "expected one unguarded-global: %s" (pp fs)

let test_unreached_state_clean () =
  (* The bench/ CLI-flag shape: global refs no domain reaches. *)
  let fs =
    scan
      "let verbose = ref false\n\
       let log s = if !verbose then print_endline s\n\
       let run k = Domain.spawn (fun () -> k + 1)\n"
  in
  check_int ("unreached state clean: " ^ pp fs) 0 (List.length fs)

let test_mutex_disciplined_ok () =
  let fs =
    scan
      "let m = Mutex.create ()\n\
       let cache = Hashtbl.create 64\n\
       let get k = Mutex.protect m (fun () -> Hashtbl.find cache k)\n\
       let run k = Domain.spawn (fun () -> get k)\n"
  in
  check_int ("protected use is clean: " ^ pp fs) 0 (List.length fs)

let test_unguarded_use_flagged () =
  let fs =
    scan
      "let m = Mutex.create ()\n\
       let cache = Hashtbl.create 64\n\
       let get k = Mutex.protect m (fun () -> Hashtbl.find cache k)\n\
       let raw k = Hashtbl.find cache k\n\
       let run k = Domain.spawn (fun () -> get k + raw k)\n"
  in
  match unguarded fs with
  | [ f ] -> check_int "only the raw use" 4 f.line
  | _ -> Alcotest.failf "expected one unguarded-global: %s" (pp fs)

let test_guard_wrapper_recognised () =
  (* Both wrapper idioms: one that hands the state to its closure, and
     one discovered from its body ([Mutex.lock] + [Fun.protect]) whose
     closure, or function passed by name, is replayed with the
     wrapper's lock held. *)
  let fs =
    scan
      "let m = Mutex.create ()\n\
       let cache = Hashtbl.create 64\n\
       let with_cache f = Mutex.protect m (fun () -> f cache)\n\
       let get k = with_cache (fun c -> Hashtbl.find c k)\n\
       let lookup k = Hashtbl.find cache k\n\
       let with_lock f =\n\
      \  Mutex.lock m;\n\
      \  Fun.protect ~finally:(fun () -> Mutex.unlock m) f\n\
       let locked k = with_lock (fun () -> lookup k)\n\
       let size () = Hashtbl.length cache\n\
       let locked_size () = with_lock size\n\
       let run k = Domain.spawn (fun () -> get k + locked k + locked_size ())\n"
  in
  check_int ("guard wrappers accepted: " ^ pp fs) 0 (List.length fs)

let test_atomic_ok () =
  let fs =
    scan
      "let hits = Atomic.make 0\n\
       let bump () = Atomic.incr hits\n\
       let run () = Domain.spawn bump\n"
  in
  check_int ("atomic clean: " ^ pp fs) 0 (List.length fs)

let test_local_state_ok () =
  (* Mutable state created per call — inside a function body, or by a
     binding with parameters — is worker-local. *)
  let fs =
    scan
      "let count xs =\n\
      \  let n = ref 0 in\n\
      \  List.iter (fun _ -> incr n) xs;\n\
      \  !n\n\
       let fresh () = Hashtbl.create 8\n\
       let run xs =\n\
      \  Domain.spawn (fun () -> count xs + Hashtbl.length (fresh ()))\n"
  in
  check_int ("per-call state clean: " ^ pp fs) 0 (List.length fs)

let test_nested_value_state_ok () =
  (* A ref allocated inside a nested [let] of a top-level value is not
     itself top-level state (the locmap_cli command-term shape). *)
  let fs =
    scan
      "let wrap r = fun () -> List.length !r\n\
       let cmd =\n\
      \  let lines = ref [] in\n\
      \  wrap lines\n\
       let go () = cmd ()\n\
       let run () = Domain.spawn go\n"
  in
  check_int ("nested ref in a value is clean: " ^ pp fs) 0 (List.length fs)

let test_creator_in_comment_or_string_ok () =
  (* An immutable value whose text names a creator is not state. *)
  let fs =
    scan
      "(* Hashtbl.create is discussed here *)\n\
       let doc = \"uses Hashtbl.create 8\"\n\
       let show () = print_string doc\n\
       let run () = Domain.spawn show\n"
  in
  check_int ("comments and strings are not state: " ^ pp fs) 0 (List.length fs)

let test_lint_ignore () =
  let fs =
    scan
      "let hits = ref 0\n\
       let bump () = incr hits (* lint:ignore — metrics, read racily *)\n\
       let run () = Domain.spawn bump\n"
  in
  check_int "lint:ignore suppresses" 0 (List.length fs)

(* ------------------------------------------------------------------ *)
(* suppression, contract rule, parse errors, JSON *)

let test_suppression_marker () =
  let sleep_suppressed =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      (* lint:ignore[blocking-under-lock] test justification *)\n\
    \      Unix.sleepf 0.1)\n"
  in
  (* The marker sits on the line before the sleep; move it onto the
     finding line to make it effective. *)
  let on_line =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      Unix.sleepf 0.1 (* lint:ignore[blocking-under-lock] test *))\n"
  in
  check_bool "marker on another line does not suppress" true
    (has "blocking-under-lock" (scan sleep_suppressed));
  check_int "marker on the finding line suppresses" 0
    (List.length (scan on_line));
  let wrong_rule =
    "let lock = Mutex.create ()\n\
     let f () =\n\
    \  Mutex.protect lock (fun () ->\n\
    \      Unix.sleepf 0.1 (* lint:ignore[domain-escape] test *))\n"
  in
  check_bool "marker for another rule keeps the finding" true
    (has "blocking-under-lock" (scan wrong_rule))

let test_contract_rule_ast_driven () =
  let cfg = Verify.Ast_lint.default_config in
  (* A pure module owes no contract, even with an .mli. *)
  let pure =
    scan ~config:cfg ~intf:"(** Pure helpers. *)\nval x : int\n" "let x = 1\n"
  in
  check_int ("pure module exempt: " ^ pp pure) 0 (List.length pure);
  (* Mutex use demands one. *)
  let conc_code =
    "let m = Mutex.create ()\nlet f g = Mutex.protect m g\n"
  in
  let missing = scan ~config:cfg ~intf:"(** Locked. *)\n" conc_code in
  check_bool "concurrency surface without contract flagged" true
    (has "missing-thread-safety-contract" missing);
  let ok =
    scan ~config:cfg
      ~intf:"(** Locked.\n\n    {b Thread safety}: fully thread-safe. *)\n"
      conc_code
  in
  check_int ("documented contract accepted: " ^ pp ok) 0 (List.length ok);
  (* A mutable record field is a concurrency surface too. *)
  let mut =
    scan ~config:cfg ~intf:"(** T. *)\n"
      "type t = { mutable n : int }\nlet get t = t.n\n"
  in
  check_bool "mutable field counts as surface" true
    (has "missing-thread-safety-contract" mut)

let test_contract_rule_scope () =
  (* The rule judges an interface: no .mli means nothing to check, and
     the rule can be switched off for a scan. *)
  let conc_code =
    "let m = Mutex.create ()\nlet f g = Mutex.protect m g\n"
  in
  let cfg = Verify.Ast_lint.default_config in
  let no_mli = scan ~config:cfg conc_code in
  check_int ("no mli, nothing to check: " ^ pp no_mli) 0
    (List.length no_mli);
  let disabled = scan ~config:no_contract ~intf:"(** x *)\n" conc_code in
  check_int ("rule can be disabled: " ^ pp disabled) 0
    (List.length disabled)

let test_parse_error_degrades () =
  let fs = scan "let = (\n" in
  check_bool "broken file yields parse-error" true (has "parse-error" fs);
  check_int "and nothing else" 1 (List.length fs)

let test_json_rendering () =
  let fs =
    scan
      "let lock = Mutex.create ()\n\
       let f () = Mutex.protect lock (fun () -> Unix.sleepf 0.1)\n"
  in
  let json = Verify.Ast_lint.to_json fs in
  check_bool "names the rule" true
    (contains json "\"rule\":\"blocking-under-lock\"");
  check_bool "counts findings" true (contains json "\"count\":1");
  check_bool "empty list renders" true
    (contains (Verify.Ast_lint.to_json []) "\"count\":0")

(* ------------------------------------------------------------------ *)
(* Repository gates. [dune runtest] runs with the test directory as
   cwd; [dune exec test/...] runs from the repo root. *)

let locate candidates =
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Alcotest.failf "none of %s exists from %s"
        (String.concat ", " candidates)
        (Sys.getcwd ())

let test_selftest_gate () =
  match
    Verify.Ast_lint.selftest
      ~dir:(locate [ "fixtures/ast_lint"; "test/fixtures/ast_lint" ])
  with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "seeded-fixture self-test failed:\n%s" msg

let test_seeded_fixture_flagged () =
  let dir = locate [ "fixtures/ast_lint"; "test/fixtures/ast_lint" ] in
  let pos =
    Verify.Ast_lint.scan_files [ Filename.concat dir "unguarded_pos.ml" ]
  in
  check_bool ("seeded fixture flagged: " ^ pp pos) true
    (has "unguarded-global" pos);
  let neg =
    Verify.Ast_lint.scan_files [ Filename.concat dir "unguarded_neg.ml" ]
  in
  check_bool ("near-miss not flagged: " ^ pp neg) false
    (has "unguarded-global" neg)

let test_pool_reachable_sources_clean () =
  (* Code that runs on pool workers or server handler domains must scan
     clean on its own, as [locmap_lint <dir>] would see it. *)
  let fs =
    Verify.Ast_lint.scan_dirs
      [
        locate [ "../lib/service"; "lib/service" ];
        locate [ "../lib/harness"; "lib/harness" ];
        locate [ "../lib/par"; "lib/par" ];
        locate [ "../lib/net"; "lib/net" ];
        locate [ "../lib/core/analysis.ml"; "lib/core/analysis.ml" ];
        locate [ "../lib/core/line_memo.ml"; "lib/core/line_memo.ml" ];
        locate [ "../lib/core/mapper.ml"; "lib/core/mapper.ml" ];
      ]
  in
  check_int ("pool-reachable sources lint clean: " ^ pp fs) 0
    (List.length fs)

let test_repository_clean () =
  (* The pinned triage result: the whole tree scans clean with the
     default configuration (PR 8). New findings mean either a real
     hazard or a justified lint:ignore — never silence. *)
  let roots =
    [
      locate [ "../lib"; "lib" ];
      locate [ "../bin"; "bin" ];
      locate [ "../bench"; "bench" ];
    ]
  in
  let t0 = Unix.gettimeofday () in
  let fs = Verify.Ast_lint.scan_dirs roots in
  let dt = Unix.gettimeofday () -. t0 in
  check_int ("repository scan clean: " ^ pp fs) 0 (List.length fs);
  check_bool
    (Printf.sprintf "scan under the 10s budget (took %.2fs)" dt)
    true (dt < 10.)

let () =
  Alcotest.run "ast_lint"
    [
      ( "lock-order",
        [
          Alcotest.test_case "ABBA cycle" `Quick test_abba_cycle;
          Alcotest.test_case "consistent order" `Quick
            test_consistent_order_clean;
          Alcotest.test_case "cross-file cycle" `Quick test_cross_file_cycle;
        ] );
      ( "double-acquire",
        [
          Alcotest.test_case "via callee" `Quick test_double_acquire_via_callee;
          Alcotest.test_case "sequential" `Quick test_sequential_acquire_clean;
        ] );
      ( "blocking-under-lock",
        [
          Alcotest.test_case "direct" `Quick test_blocking_direct;
          Alcotest.test_case "transitive" `Quick test_blocking_transitive;
          Alcotest.test_case "wait own mutex" `Quick
            test_condition_wait_own_mutex_clean;
          Alcotest.test_case "wait foreign mutex" `Quick
            test_condition_wait_foreign_mutex_flagged;
          Alcotest.test_case "guard wrapper replay" `Quick
            test_guard_wrapper_replay;
          Alcotest.test_case "async sink args" `Quick
            test_async_sink_args_run_unlocked;
        ] );
      ( "domain-escape",
        [
          Alcotest.test_case "unguarded" `Quick test_escape_unguarded_flagged;
          Alcotest.test_case "guarded" `Quick test_escape_guarded_clean;
          Alcotest.test_case "guard wrapper" `Quick test_escape_guard_wrapper;
          Alcotest.test_case "guarded parameter" `Quick
            test_escape_guarded_parameter;
          Alcotest.test_case "captured local" `Quick
            test_escape_captured_local_mutation;
        ] );
      ( "mutable-state",
        [
          Alcotest.test_case "unguarded global" `Quick test_unguarded_global;
          Alcotest.test_case "unguarded ref" `Quick test_unguarded_ref;
          Alcotest.test_case "shadowing parameter" `Quick
            test_shadowing_parameter_clean;
          Alcotest.test_case "two-hop" `Quick test_unguarded_two_hop;
          Alcotest.test_case "cross-file callee" `Quick
            test_unguarded_cross_file;
          Alcotest.test_case "unreached state" `Quick
            test_unreached_state_clean;
          Alcotest.test_case "mutex disciplined" `Quick
            test_mutex_disciplined_ok;
          Alcotest.test_case "unguarded use" `Quick test_unguarded_use_flagged;
          Alcotest.test_case "guard wrapper" `Quick
            test_guard_wrapper_recognised;
          Alcotest.test_case "atomic" `Quick test_atomic_ok;
          Alcotest.test_case "local state" `Quick test_local_state_ok;
          Alcotest.test_case "nested value state" `Quick
            test_nested_value_state_ok;
          Alcotest.test_case "comments stripped" `Quick
            test_creator_in_comment_or_string_ok;
          Alcotest.test_case "lint:ignore" `Quick test_lint_ignore;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "suppression" `Quick test_suppression_marker;
          Alcotest.test_case "contract rule" `Quick
            test_contract_rule_ast_driven;
          Alcotest.test_case "parse error" `Quick test_parse_error_degrades;
          Alcotest.test_case "json" `Quick test_json_rendering;
        ] );
      ( "contract",
        [
          Alcotest.test_case "thread-safety contract" `Quick
            test_contract_rule_scope;
        ] );
      ( "repository",
        [
          Alcotest.test_case "pool-reachable clean" `Quick
            test_pool_reachable_sources_clean;
          Alcotest.test_case "seeded fixture" `Quick
            test_seeded_fixture_flagged;
          Alcotest.test_case "seeded fixtures" `Quick test_selftest_gate;
          Alcotest.test_case "tree clean" `Quick test_repository_clean;
        ] );
    ]
