type suppression = All | Rules of string list

type t = {
  path : string;
  modname : string;
  code : string;
  ast : Parsetree.structure option;
  parse_error : (int * string) option;
  suppressions : (int, suppression) Hashtbl.t;
}

let modname_of_path path = String.capitalize_ascii Filename.(remove_extension (basename path))

(* [lint:ignore] anywhere on a line suppresses every rule on that line;
   [lint:ignore[rule-a,rule-b]] suppresses only the named rules. The
   justification text after the marker is for the human reader. *)
let suppressions_of code =
  let tbl = Hashtbl.create 8 in
  let find_sub hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else go (i + 1) in
    go 0
  in
  List.iteri
    (fun idx line ->
      match find_sub line "lint:ignore" with
      | None -> ()
      | Some i -> (
          let j = i + String.length "lint:ignore" in
          if j < String.length line && line.[j] = '[' then
            match String.index_from_opt line j ']' with
            | Some k ->
                let rules =
                  String.sub line (j + 1) (k - j - 1)
                  |> String.split_on_char ','
                  |> List.map String.trim
                  |> List.filter (fun r -> r <> "")
                in
                Hashtbl.replace tbl (idx + 1) (Rules rules)
            | None -> Hashtbl.replace tbl (idx + 1) All
          else Hashtbl.replace tbl (idx + 1) All))
    (String.split_on_char '\n' code);
  tbl

let parse ~path code =
  let lexbuf = Lexing.from_string code in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> (Some ast, None)
  | exception Syntaxerr.Error err ->
      let loc = Syntaxerr.location_of_error err in
      (None, Some (loc.Location.loc_start.Lexing.pos_lnum, "syntax error"))
  | exception e -> (None, Some (1, Printexc.to_string e))

let load ~path ~code =
  let ast, parse_error = parse ~path code in
  {
    path;
    modname = modname_of_path path;
    code;
    ast;
    parse_error;
    suppressions = suppressions_of code;
  }

let read path =
  let ic = open_in_bin path in
  let code =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  load ~path ~code

let suppressed t ~line ~rule =
  match Hashtbl.find_opt t.suppressions line with
  | None -> false
  | Some All -> true
  | Some (Rules rs) -> List.mem rule rs

type finding = { file : string; line : int; rule : string; message : string }

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d: [%s] %s" f.file f.line f.rule f.message
