type t = {
  mutable times : int array;
  mutable ids : int array;
  mutable len : int;
}

let create ~capacity =
  let capacity = max 1 capacity in
  { times = Array.make capacity 0; ids = Array.make capacity 0; len = 0 }

let grow t =
  let cap = Array.length t.times * 2 in
  let times = Array.make cap 0 and ids = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.ids 0 ids 0 t.len;
  t.times <- times;
  t.ids <- ids

(* Both sifts move a hole instead of swapping level by level: the
   moving event is written once, where it lands. They make the same
   comparisons as a swap-based sift and leave the same array layout, so
   equal-time events pop in the same order — the simulator's statistics
   depend on that order. *)
let push t ~time ~id =
  if time < 0 then invalid_arg "Event_heap.push: negative time";
  if t.len = Array.length t.times then grow t;
  let times = t.times and ids = t.ids in
  let i = ref t.len in
  t.len <- t.len + 1;
  while !i > 0 && Array.unsafe_get times ((!i - 1) / 2) > time do
    let p = (!i - 1) / 2 in
    Array.unsafe_set times !i (Array.unsafe_get times p);
    Array.unsafe_set ids !i (Array.unsafe_get ids p);
    i := p
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set ids !i id

let min_time t =
  if t.len = 0 then invalid_arg "Event_heap.min_time: empty heap";
  Array.unsafe_get t.times 0

let pop_id t =
  if t.len = 0 then invalid_arg "Event_heap.pop_id: empty heap";
  let times = t.times and ids = t.ids in
  let id = Array.unsafe_get ids 0 in
  let len = t.len - 1 in
  t.len <- len;
  if len > 0 then begin
    (* Sift the last event down from the root. *)
    let time = Array.unsafe_get times len and last = Array.unsafe_get ids len in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i and small_time = ref time in
      if l < len && Array.unsafe_get times l < !small_time then begin
        smallest := l;
        small_time := Array.unsafe_get times l
      end;
      if r < len && Array.unsafe_get times r < !small_time then smallest := r;
      if !smallest <> !i then begin
        let c = !smallest in
        Array.unsafe_set times !i (Array.unsafe_get times c);
        Array.unsafe_set ids !i (Array.unsafe_get ids c);
        i := c
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set ids !i last
  end;
  id

let pop t =
  if t.len = 0 then None
  else
    (* Read before [pop_id] moves another event to the root. *)
    let time = t.times.(0) in
    Some (time, pop_id t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)
let size t = t.len
let is_empty t = t.len = 0
