(* Direct unit tests for the shared discrete-event heap (lib/des) —
   the structure both the manycore simulator and the cluster scheduler
   drain. Pins the two contract properties its .mli documents: popped
   times are non-decreasing, and the same push/pop sequence always
   yields the same results. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let drain h =
  let rec go acc =
    match Des.Event_heap.pop h with
    | None -> List.rev acc
    | Some ev -> go (ev :: acc)
  in
  go []

let test_ordering () =
  let h = Des.Event_heap.create ~capacity:4 in
  let events = [ (5, 0); (1, 1); (3, 2); (1, 3); (9, 4); (0, 5); (3, 6) ] in
  List.iter (fun (time, id) -> Des.Event_heap.push h ~time ~id) events;
  check_int "size" (List.length events) (Des.Event_heap.size h);
  let popped = drain h in
  check_int "drained" (List.length events) (List.length popped);
  let times = List.map fst popped in
  check_bool "times non-decreasing" true
    (List.for_all2 ( <= ) times (List.tl times @ [ max_int ]));
  (* Same multiset out as in, whatever the tie order. *)
  check_bool "same events" true
    (List.sort compare popped = List.sort compare events)

let test_interleaved_ordering () =
  (* Pops interleaved with pushes still return a current minimum. *)
  let h = Des.Event_heap.create ~capacity:2 in
  Des.Event_heap.push h ~time:4 ~id:0;
  Des.Event_heap.push h ~time:2 ~id:1;
  check_bool "min first" true (Des.Event_heap.pop h = Some (2, 1));
  Des.Event_heap.push h ~time:1 ~id:2;
  Des.Event_heap.push h ~time:7 ~id:3;
  check_bool "new min" true (Des.Event_heap.pop h = Some (1, 2));
  check_bool "then 4" true (Des.Event_heap.pop h = Some (4, 0));
  check_bool "then 7" true (Des.Event_heap.pop h = Some (7, 3));
  check_bool "empty" true (Des.Event_heap.is_empty h);
  check_bool "pop empty" true (Des.Event_heap.pop h = None);
  check_bool "peek empty" true (Des.Event_heap.peek_time h = None)

let test_determinism () =
  (* The heap is a pure sequential structure: replaying a push/pop
     script gives identical pop sequences, ties included. *)
  let script rng n =
    List.init n (fun i ->
        if i mod 3 = 2 then None
        else Some (Random.State.int rng 50, i))
  in
  let replay script =
    let h = Des.Event_heap.create ~capacity:8 in
    let out = ref [] in
    List.iter
      (fun ev ->
        match ev with
        | Some (time, id) -> Des.Event_heap.push h ~time ~id
        | None -> out := Des.Event_heap.pop h :: !out)
      script;
    List.rev_append !out (drain h |> List.map Option.some)
  in
  let s = script (Random.State.make [| 77 |]) 200 in
  check_bool "replays identical" true (replay s = replay s)

let test_sorted_reference () =
  (* Against the obvious model: popping everything equals sorting by
     time (ids compared as sorted multisets per time). *)
  let rng = Random.State.make [| 13 |] in
  for _ = 1 to 20 do
    let n = 1 + Random.State.int rng 60 in
    let events = List.init n (fun i -> (Random.State.int rng 10, i)) in
    let h = Des.Event_heap.create ~capacity:1 in
    List.iter (fun (time, id) -> Des.Event_heap.push h ~time ~id) events;
    let popped = drain h in
    check_bool "matches sort" true
      (List.sort compare popped = List.sort compare events);
    check_bool "times sorted" true
      (List.map fst popped = List.sort compare (List.map fst events))
  done

let test_negative_time () =
  let h = Des.Event_heap.create ~capacity:1 in
  check_bool "negative time rejected" true
    (try
       Des.Event_heap.push h ~time:(-1) ~id:0;
       false
     with Invalid_argument _ -> true)

(* The swap-based heap the hole sifts replaced, kept as the reference
   for tie order: the simulator's statistics depend on which of several
   equal-time events pops first, so the rewrite must reproduce this
   heap's pop sequence exactly, not merely a sorted one. *)
module Swap_heap = struct
  type t = { mutable times : int array; mutable ids : int array; mutable len : int }

  let create () = { times = Array.make 1 0; ids = Array.make 1 0; len = 0 }

  let swap t i j =
    let tt = t.times.(i) and ti = t.ids.(i) in
    t.times.(i) <- t.times.(j);
    t.ids.(i) <- t.ids.(j);
    t.times.(j) <- tt;
    t.ids.(j) <- ti

  let push t ~time ~id =
    if t.len = Array.length t.times then begin
      let grow a = Array.append a (Array.make (Array.length a) 0) in
      t.times <- grow t.times;
      t.ids <- grow t.ids
    end;
    t.times.(t.len) <- time;
    t.ids.(t.len) <- id;
    let i = ref t.len in
    t.len <- t.len + 1;
    while !i > 0 && t.times.((!i - 1) / 2) > t.times.(!i) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop t =
    if t.len = 0 then None
    else begin
      let time = t.times.(0) and id = t.ids.(0) in
      t.len <- t.len - 1;
      if t.len > 0 then begin
        t.times.(0) <- t.times.(t.len);
        t.ids.(0) <- t.ids.(t.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.len && t.times.(l) < t.times.(!smallest) then smallest := l;
          if r < t.len && t.times.(r) < t.times.(!smallest) then smallest := r;
          if !smallest <> !i then begin
            swap t !i !smallest;
            i := !smallest
          end
          else continue := false
        done
      end;
      Some (time, id)
    end
end

let test_swap_heap_equivalence () =
  (* Seeded push/pop scripts over a handful of distinct times, so most
     events tie. Pops alternate between [pop] and [min_time]+[pop_id]. *)
  let rng = Random.State.make [| 2024 |] in
  for round = 1 to 200 do
    let distinct = 1 + Random.State.int rng 6 in
    let n = 1 + Random.State.int rng 400 in
    let h = Des.Event_heap.create ~capacity:(1 + Random.State.int rng 4) in
    let r = Swap_heap.create () in
    let got = ref [] and want = ref [] in
    let pop_both k =
      want := Swap_heap.pop r :: !want;
      got :=
        (if Des.Event_heap.is_empty h then None
         else if k land 1 = 0 then Des.Event_heap.pop h
         else
           let time = Des.Event_heap.min_time h in
           Some (time, Des.Event_heap.pop_id h))
        :: !got
    in
    for i = 0 to n - 1 do
      if Random.State.int rng 3 = 0 then pop_both i
      else begin
        let time = Random.State.int rng distinct * 10 in
        Des.Event_heap.push h ~time ~id:i;
        Swap_heap.push r ~time ~id:i
      end
    done;
    for k = 0 to Des.Event_heap.size h do
      pop_both k
    done;
    check_bool
      (Printf.sprintf "round %d: same (time, id) sequence" round)
      true (!got = !want)
  done

let test_pop_id_empty () =
  let h = Des.Event_heap.create ~capacity:1 in
  let raises f = try ignore (f h); false with Invalid_argument _ -> true in
  check_bool "min_time empty" true (raises Des.Event_heap.min_time);
  check_bool "pop_id empty" true (raises Des.Event_heap.pop_id)

let () =
  Alcotest.run "event_heap"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_ordering;
          Alcotest.test_case "interleaved" `Quick test_interleaved_ordering;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "sorted reference" `Quick test_sorted_reference;
          Alcotest.test_case "negative time" `Quick test_negative_time;
          Alcotest.test_case "swap-heap pop order" `Quick test_swap_heap_equivalence;
          Alcotest.test_case "pop_id on empty" `Quick test_pop_id_empty;
        ] );
    ]
