(* Per-layer times from the exported trace: spans are kept in memory by
   Obs.Trace, written out as JSON lines at the end of the run, and read
   back here. A layer's self time is its span minus its children; the
   benchmark's spans are a root per request or case with leaf children
   (phase spans may nest under a layer span). *)

type span = { trace : string; id : int; parent : int; name : string; ms : float }

type tree = {
  root_ms : float;
  children : (string * float) list;  (** direct children, in span order *)
}

let parse_line line =
  let j = Result.get_ok (Service.Json.of_string line) in
  let get k = Option.get (Service.Json.member k j) in
  let int k = Result.get_ok (Service.Json.to_int (get k)) in
  {
    trace = Result.get_ok (Service.Json.to_str (get "trace"));
    id = int "span";
    parent = int "parent";
    name = Result.get_ok (Service.Json.to_str (get "name"));
    ms = float_of_int (int "dur_ns") /. 1e6;
  }

let write_and_parse tr path =
  let jsonl = Obs.Trace.to_jsonl tr in
  Util.mkdir_p (Filename.dirname path);
  Util.write_file path jsonl;
  String.split_on_char '\n' jsonl
  |> List.filter (( <> ) "")
  |> List.map parse_line

(* One tree per trace whose root is named [root]. *)
let by_root spans root =
  let traces = Hashtbl.create 256 in
  List.iter
    (fun s -> Hashtbl.replace traces s.trace (s :: Option.value (Hashtbl.find_opt traces s.trace) ~default:[]))
    spans;
  Hashtbl.fold
    (fun _ ss acc ->
      match List.find_opt (fun s -> s.parent = 0 && s.name = root) ss with
      | None -> acc
      | Some r ->
          let children =
            List.filter (fun s -> s.parent = r.id) ss
            |> List.sort (fun a b -> compare a.id b.id)
            |> List.map (fun s -> (s.name, s.ms))
          in
          { root_ms = r.ms; children } :: acc)
    traces []

(* Median over the trees that have it of a child's duration (summed if
   it occurs more than once); 0 when no tree has it. *)
let median_child trees name =
  List.filter_map
    (fun t ->
      match List.filter (fun (n, _) -> n = name) t.children with
      | [] -> None
      | cs -> Some (List.fold_left (fun acc (_, ms) -> acc +. ms) 0. cs))
    trees
  |> Array.of_list |> Util.median

(* Share of the root covered by its children: 100 minus the root's own
   self time, in percent. *)
let coverage t =
  let covered = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. t.children in
  if t.root_ms <= 0. then 100. else 100. *. covered /. t.root_ms
