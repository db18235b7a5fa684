(* Tests for the set-associative cache model. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let small () = Cache.Sa_cache.create ~size:1024 ~assoc:2 ~line_size:64 ()
(* 1024 / 64 = 16 lines, 2-way -> 8 sets. Addresses [a] and
   [a + 8*64 = a + 512] collide in the same set. *)

let is_hit = function
  | Cache.Sa_cache.Hit -> true
  | Cache.Sa_cache.Miss _ -> false

let test_geometry () =
  let c = small () in
  check_int "sets" 8 (Cache.Sa_cache.num_sets c);
  check_int "assoc" 2 (Cache.Sa_cache.assoc c);
  check_int "capacity" 1024 (Cache.Sa_cache.capacity c);
  check_int "line size" 64 (Cache.Sa_cache.line_size c)

let test_geometry_errors () =
  Alcotest.check_raises "indivisible"
    (Invalid_argument "Sa_cache.create: size not divisible into sets")
    (fun () -> ignore (Cache.Sa_cache.create ~size:100 ~assoc:3 ~line_size:64 ()));
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Sa_cache.create: non-positive geometry") (fun () ->
      ignore (Cache.Sa_cache.create ~size:0 ~assoc:1 ~line_size:64 ()))

let test_miss_then_hit () =
  let c = small () in
  check_bool "cold miss" false (is_hit (Cache.Sa_cache.access c ~addr:0 ~write:false));
  check_bool "hit" true (is_hit (Cache.Sa_cache.access c ~addr:32 ~write:false));
  check_int "hits" 1 (Cache.Sa_cache.hits c);
  check_int "misses" 1 (Cache.Sa_cache.misses c)

let test_lru_eviction () =
  let c = small () in
  (* Three same-set lines in a 2-way set: the oldest is evicted. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  (* Touch 0 again so 512 becomes LRU. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  (match Cache.Sa_cache.access c ~addr:1024 ~write:false with
  | Cache.Sa_cache.Miss { victim_line_addr; victim_dirty } ->
      check_int "LRU victim" 512 victim_line_addr;
      check_bool "clean victim" false victim_dirty
  | Cache.Sa_cache.Hit -> Alcotest.fail "expected a miss");
  check_bool "0 survived" true (Cache.Sa_cache.probe c ~addr:0);
  check_bool "512 evicted" false (Cache.Sa_cache.probe c ~addr:512)

let test_dirty_writeback () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:true);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  (match Cache.Sa_cache.access c ~addr:1024 ~write:false with
  | Cache.Sa_cache.Miss { victim_line_addr; victim_dirty } ->
      check_int "dirty victim is line 0" 0 victim_line_addr;
      check_bool "dirty" true victim_dirty
  | Cache.Sa_cache.Hit -> Alcotest.fail "expected a miss");
  check_int "writebacks counted" 1 (Cache.Sa_cache.writebacks c)

let test_write_hit_marks_dirty () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:true);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  match Cache.Sa_cache.access c ~addr:1024 ~write:false with
  | Cache.Sa_cache.Miss { victim_dirty; _ } ->
      check_bool "write hit dirtied the line" true victim_dirty
  | Cache.Sa_cache.Hit -> Alcotest.fail "expected a miss"

let test_probe_no_side_effect () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  let h = Cache.Sa_cache.hits c and m = Cache.Sa_cache.misses c in
  ignore (Cache.Sa_cache.probe c ~addr:0);
  ignore (Cache.Sa_cache.probe c ~addr:4096);
  check_int "hits unchanged" h (Cache.Sa_cache.hits c);
  check_int "misses unchanged" m (Cache.Sa_cache.misses c)

let test_invalidate () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:true);
  Cache.Sa_cache.invalidate c ~addr:0;
  check_bool "gone" false (Cache.Sa_cache.probe c ~addr:0)

let test_reset () =
  let c = small () in
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  Cache.Sa_cache.reset c;
  check_int "accesses cleared" 0 (Cache.Sa_cache.accesses c);
  check_bool "contents cleared" false (Cache.Sa_cache.probe c ~addr:0)

let test_full_way_residency () =
  let c = small () in
  (* Fill both ways of one set, re-touch both: all hits. *)
  ignore (Cache.Sa_cache.access c ~addr:0 ~write:false);
  ignore (Cache.Sa_cache.access c ~addr:512 ~write:false);
  check_bool "way 1 resident" true (is_hit (Cache.Sa_cache.access c ~addr:0 ~write:false));
  check_bool "way 2 resident" true
    (is_hit (Cache.Sa_cache.access c ~addr:512 ~write:false))

(* Property: a sequential sweep larger than the cache yields exactly one
   miss per line (streaming), and a re-sweep of a cache-sized prefix
   hits everywhere. *)
let qcheck_streaming_misses =
  QCheck.Test.make ~name:"sequential sweep misses once per line" ~count:20
    QCheck.(int_range 4 64)
    (fun lines ->
      let c = Cache.Sa_cache.create ~size:(1 lsl 14) ~assoc:8 ~line_size:64 () in
      for k = 0 to (lines * 8) - 1 do
        ignore (Cache.Sa_cache.access c ~addr:(k * 8) ~write:false)
      done;
      Cache.Sa_cache.misses c = lines)

let qcheck_hit_rate_bounds =
  QCheck.Test.make ~name:"hit rate within [0,1]" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 200) (int_bound 100_000))
    (fun addrs ->
      let c = small () in
      List.iter (fun a -> ignore (Cache.Sa_cache.access c ~addr:a ~write:false)) addrs;
      let r = Cache.Sa_cache.hit_rate c in
      r >= 0. && r <= 1.)

(* The lookup the tag-first one replaced: one pass over the set reading
   tags and LRU stamps together, remembering the last invalid way and
   the first least-recent valid way as the victim. A test-local copy,
   kept as the reference the rewrite must match access for access. *)
module Ref_cache = struct
  type t = {
    line_size : int;
    sets : int;
    assoc : int;
    tags : int array;
    dirty : bool array;
    stamp : int array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable writebacks : int;
  }

  let create ~size ~assoc ~line_size =
    let lines = size / line_size in
    {
      line_size;
      sets = lines / assoc;
      assoc;
      tags = Array.make lines (-1);
      dirty = Array.make lines false;
      stamp = Array.make lines 0;
      clock = 0;
      hits = 0;
      misses = 0;
      writebacks = 0;
    }

  (* [None] on a hit, [Some (victim_line_addr, victim_dirty)] on a miss. *)
  let access t ~addr ~write =
    let line = addr / t.line_size in
    let base = line mod t.sets * t.assoc in
    t.clock <- t.clock + 1;
    let found = ref (-1) and victim = ref (-1) in
    let oldest = ref max_int and invalid = ref (-1) in
    for w = base to base + t.assoc - 1 do
      if t.tags.(w) = line then found := w
      else if t.tags.(w) = -1 then invalid := w
      else if t.stamp.(w) < !oldest then begin
        oldest := t.stamp.(w);
        victim := w
      end
    done;
    if !found >= 0 then begin
      t.stamp.(!found) <- t.clock;
      if write then t.dirty.(!found) <- true;
      t.hits <- t.hits + 1;
      None
    end
    else begin
      let w = if !invalid >= 0 then !invalid else !victim in
      let tag = t.tags.(w) in
      let vdirty = tag >= 0 && t.dirty.(w) in
      if vdirty then t.writebacks <- t.writebacks + 1;
      t.tags.(w) <- line;
      t.dirty.(w) <- write;
      t.stamp.(w) <- t.clock;
      t.misses <- t.misses + 1;
      Some ((if tag >= 0 then tag * t.line_size else -1), vdirty)
    end

  let invalidate t ~addr =
    let line = addr / t.line_size in
    let base = line mod t.sets * t.assoc in
    for w = base to base + t.assoc - 1 do
      if t.tags.(w) = line then begin
        t.tags.(w) <- -1;
        t.dirty.(w) <- false
      end
    done
end

let test_reference_lookup () =
  (* (size, assoc, line): power-of-two, direct-mapped, fully
     associative, and non-power-of-two sets and lines (the division
     path). Seeded addresses over a few capacities, so sets fill, evict
     and hit; an occasional invalidate leaves holes for the
     last-invalid-way rule. Both [access] and [access_hit] are driven. *)
  let geometries =
    [ (1024, 2, 64); (32768, 8, 64); (512, 1, 32); (1024, 16, 64);
      (960, 3, 64); (720, 5, 48) ]
  in
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun (size, assoc, line_size) ->
      let c = Cache.Sa_cache.create ~size ~assoc ~line_size () in
      let r = Ref_cache.create ~size ~assoc ~line_size in
      let name = Printf.sprintf "%d/%d/%d" size assoc line_size in
      for i = 1 to 20_000 do
        let addr = Random.State.int rng (4 * size) in
        if Random.State.int rng 50 = 0 then begin
          Cache.Sa_cache.invalidate c ~addr;
          Ref_cache.invalidate r ~addr
        end
        else begin
          let write = Random.State.bool rng in
          let got =
            if i land 1 = 0 then
              match Cache.Sa_cache.access c ~addr ~write with
              | Cache.Sa_cache.Hit -> None
              | Cache.Sa_cache.Miss { victim_line_addr; victim_dirty } ->
                  Some (victim_line_addr, victim_dirty)
            else if Cache.Sa_cache.access_hit c ~addr ~write then None
            else
              Some
                (Cache.Sa_cache.victim_line_addr c, Cache.Sa_cache.victim_dirty c)
          in
          let want = Ref_cache.access r ~addr ~write in
          if got <> want then
            Alcotest.failf "%s: access %d (addr %d) diverges from the reference"
              name i addr
        end
      done;
      check_int (name ^ " hits") r.Ref_cache.hits (Cache.Sa_cache.hits c);
      check_int (name ^ " misses") r.Ref_cache.misses (Cache.Sa_cache.misses c);
      check_int (name ^ " writebacks") r.Ref_cache.writebacks
        (Cache.Sa_cache.writebacks c);
      check_bool (name ^ " saw both outcomes") true
        (r.Ref_cache.hits > 0 && r.Ref_cache.misses > 0))
    geometries

let () =
  Alcotest.run "cache"
    [
      ( "sa_cache",
        [
          Alcotest.test_case "geometry" `Quick test_geometry;
          Alcotest.test_case "geometry errors" `Quick test_geometry_errors;
          Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_dirty_writeback;
          Alcotest.test_case "write hit dirties" `Quick test_write_hit_marks_dirty;
          Alcotest.test_case "probe is pure" `Quick test_probe_no_side_effect;
          Alcotest.test_case "invalidate" `Quick test_invalidate;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "full-way residency" `Quick test_full_way_residency;
          Alcotest.test_case "reference lookup" `Quick test_reference_lookup;
          QCheck_alcotest.to_alcotest qcheck_streaming_misses;
          QCheck_alcotest.to_alcotest qcheck_hit_rate_bounds;
        ] );
      ( "llc",
        [
          Alcotest.test_case "string roundtrip" `Quick (fun () ->
              check_bool "private" true
                (Cache.Llc.of_string "Private" = Ok Cache.Llc.Private);
              check_bool "shared" true
                (Cache.Llc.of_string "shared" = Ok Cache.Llc.Shared);
              check_bool "unknown is error" true
                (match Cache.Llc.of_string "weird" with
                | Error _ -> true
                | Ok _ -> false);
              check_bool "equal" true (Cache.Llc.equal Cache.Llc.Shared Cache.Llc.Shared);
              check_bool "not equal" false
                (Cache.Llc.equal Cache.Llc.Shared Cache.Llc.Private));
        ] );
    ]
