type t = {
  line_size : int;
  sets : int;
  assoc : int;
  line_shift : int;  (* log2 line_size when pow2 geometry, else -1 *)
  set_mask : int;  (* sets - 1 when pow2 geometry *)
  tags : int array;  (* sets * assoc; -1 = invalid; tag = line index *)
  dirty : Bytes.t;
  stamp : int array;  (* LRU timestamps *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  mutable victim_addr : int;  (* last miss's evicted line address; -1 *)
  mutable victim_was_dirty : bool;
}

type result =
  | Hit
  | Miss of {
      victim_line_addr : int;
      victim_dirty : bool;
    }

let create ~size ~assoc ~line_size () =
  if size <= 0 || assoc <= 0 || line_size <= 0 then
    invalid_arg "Sa_cache.create: non-positive geometry";
  let lines = size / line_size in
  if lines = 0 || lines mod assoc <> 0 then
    invalid_arg "Sa_cache.create: size not divisible into sets";
  let sets = lines / assoc in
  (* Real geometries are powers of two; shift/mask then replaces the
     division and modulo on every lookup. A degenerate hand-built
     geometry keeps the arithmetic path. *)
  let pow2 n = n > 0 && n land (n - 1) = 0 in
  let line_shift =
    if pow2 line_size && pow2 sets then begin
      let rec log2 s = if 1 lsl s >= line_size then s else log2 (s + 1) in
      log2 0
    end
    else -1
  in
  {
    line_size;
    sets;
    assoc;
    line_shift;
    set_mask = sets - 1;
    tags = Array.make lines (-1);
    dirty = Bytes.make lines '\000';
    stamp = Array.make lines 0;
    clock = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    victim_addr = -1;
    victim_was_dirty = false;
  }

let line_of t addr =
  if t.line_shift >= 0 then addr lsr t.line_shift else addr / t.line_size

let set_of t line =
  if t.line_shift >= 0 then line land t.set_mask else line mod t.sets

(* The one lookup. A hit needs only the tags, so the LRU stamps are
   read only on a miss: the victim is the last invalid way of the set,
   else the first way with the least-recent stamp. The victim goes to
   [victim_addr]/[victim_was_dirty] rather than into a result block,
   so the simulator's and the replay's inner loops allocate nothing. *)
let access_hit t ~addr ~write =
  if addr < 0 then invalid_arg "Sa_cache.access: negative address";
  let line = line_of t addr in
  let base = set_of t line * t.assoc in
  let last = base + t.assoc - 1 in
  let tags = t.tags in
  t.clock <- t.clock + 1;
  let w = ref base in
  while !w <= last && Array.unsafe_get tags !w <> line do
    incr w
  done;
  if !w <= last then begin
    let w = !w in
    Array.unsafe_set t.stamp w t.clock;
    if write then Bytes.unsafe_set t.dirty w '\001';
    t.hits <- t.hits + 1;
    true
  end
  else begin
    let stamp = t.stamp in
    let invalid = ref (-1) and victim = ref (-1) and oldest = ref max_int in
    for w = base to last do
      if Array.unsafe_get tags w = -1 then invalid := w
      else if Array.unsafe_get stamp w < !oldest then begin
        oldest := Array.unsafe_get stamp w;
        victim := w
      end
    done;
    let w = if !invalid >= 0 then !invalid else !victim in
    let victim_tag = Array.unsafe_get tags w in
    let dirty = victim_tag >= 0 && Bytes.unsafe_get t.dirty w = '\001' in
    if dirty then t.writebacks <- t.writebacks + 1;
    t.victim_addr <- (if victim_tag >= 0 then victim_tag * t.line_size else -1);
    t.victim_was_dirty <- dirty;
    Array.unsafe_set tags w line;
    Bytes.unsafe_set t.dirty w (if write then '\001' else '\000');
    Array.unsafe_set stamp w t.clock;
    t.misses <- t.misses + 1;
    false
  end

let victim_line_addr t = t.victim_addr
let victim_dirty t = t.victim_was_dirty

let access t ~addr ~write =
  if access_hit t ~addr ~write then Hit
  else Miss { victim_line_addr = t.victim_addr; victim_dirty = t.victim_was_dirty }

let probe t ~addr =
  let line = line_of t addr in
  let set = set_of t line in
  let base = set * t.assoc in
  let rec go w = w < base + t.assoc && (t.tags.(w) = line || go (w + 1)) in
  go base

let invalidate t ~addr =
  let line = line_of t addr in
  let set = set_of t line in
  let base = set * t.assoc in
  for w = base to base + t.assoc - 1 do
    if t.tags.(w) = line then begin
      t.tags.(w) <- -1;
      Bytes.unsafe_set t.dirty w '\000'
    end
  done

let line_size t = t.line_size
let num_sets t = t.sets
let assoc t = t.assoc
let capacity t = t.sets * t.assoc * t.line_size

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Bytes.fill t.dirty 0 (Bytes.length t.dirty) '\000';
  Array.fill t.stamp 0 (Array.length t.stamp) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0;
  t.victim_addr <- -1;
  t.victim_was_dirty <- false

let hits t = t.hits
let misses t = t.misses
let writebacks t = t.writebacks
let accesses t = t.hits + t.misses

let hit_rate t =
  let n = accesses t in
  if n = 0 then 0. else float_of_int t.hits /. float_of_int n
