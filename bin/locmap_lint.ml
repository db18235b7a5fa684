(* locmap-lint — the concurrency analyzer over this repository's
   sources.

     locmap_lint                               # every rule over lib/ bin/ bench/
     locmap_lint lib/net                       # one subtree
     locmap_lint --json findings.json          # machine-readable CI artifact
     locmap_lint --selftest test/fixtures/ast_lint   # seeded-rule gate

   The analysis is [Verify.Ast_lint]: parsetree-based lock-order,
   blocking-under-lock, domain-escape and unguarded-global rules,
   interprocedural over a per-run call graph.

   Exit status: 0 when clean, 1 when any finding (or a failed
   self-test), 2 on usage errors. *)

open Cmdliner

let default_paths = [ "lib"; "bin"; "bench" ]

let paths_arg =
  Arg.(
    value & pos_all string default_paths
    & info [] ~docv:"PATH"
        ~doc:
          "Directories (scanned recursively for .ml files) or single .ml \
           files. Defaults to the whole tree: lib, bin and bench.")

let exclude_arg =
  Arg.(
    value & opt_all string []
    & info [ "exclude" ] ~docv:"PREFIX"
        ~doc:
          "Path prefix to skip (repeatable), e.g. --exclude lib/harness. \
           $(i,_build) and dot-directories are always skipped.")

let require_mli_arg =
  Arg.(
    value & flag
    & info [ "require-mli" ]
        ~doc:"Also flag .ml files that have no sibling .mli interface.")

let no_contract_arg =
  Arg.(
    value & flag
    & info [ "no-contract" ]
        ~doc:
          "Do not require the .mli thread-safety contract on modules with \
           a concurrency surface (useful when scanning code outside the \
           serving stack).")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write findings as JSON to $(docv) (\"-\" for stdout) — the CI \
           artifact reviewers diff across PRs.")

let selftest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "selftest" ] ~docv:"DIR"
        ~doc:
          "Run the seeded-fixture gate against $(docv): every AST rule \
           must fire on its positive fixture and stay silent on the \
           near-miss negative. No tree scan is performed.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Print findings only.")

let write_json path findings =
  let body = Verify.Ast_lint.to_json findings in
  if path = "-" then print_string body
  else begin
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc body)
  end

let run paths exclude require_mli no_contract json selftest quiet =
  match selftest with
  | Some dir -> (
      match Verify.Ast_lint.selftest ~dir with
      | Ok msg ->
          if not quiet then print_endline msg;
          exit 0
      | Error msg ->
          Printf.eprintf "lint self-test FAILED:\n%s\n" msg;
          exit 1)
  | None ->
      List.iter
        (fun p ->
          if not (Sys.file_exists p) then begin
            Printf.eprintf "locmap_lint: no such path %S\n" p;
            exit 2
          end)
        paths;
      let findings =
        Verify.Ast_lint.scan_dirs
          ~config:
            { Verify.Ast_lint.contract_rule = not no_contract; require_mli }
          ~exclude paths
      in
      List.iter
        (fun f -> Format.printf "%a@." Verify.Ast_source.pp_finding f)
        findings;
      Option.iter (fun p -> write_json p findings) json;
      (match findings with
      | [] ->
          if not quiet then
            Printf.printf "lint: clean (%s)\n" (String.concat " " paths);
          exit 0
      | fs ->
          if not quiet then
            Printf.printf "lint: %d finding(s)\n" (List.length fs);
          exit 1)

let () =
  let doc =
    "concurrency analyzer for the locmap sources (see Verify.Ast_lint)"
  in
  exit
    (Cmd.eval
       (Cmd.v
          (Cmd.info "locmap_lint" ~version:"2.0.0" ~doc)
          Term.(
            const run $ paths_arg $ exclude_arg $ require_mli_arg
            $ no_contract_arg $ json_arg $ selftest_arg $ quiet_arg)))
