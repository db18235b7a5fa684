(* Shared helpers: clock, order statistics, digests, files, /proc. *)

let now_ns = Obs.Clock.now_ns
let ms_between a b = Obs.Clock.ns_to_ms (Int64.sub b a)
let ms_since t0 = ms_between t0 (now_ns ())
let s_since t0 = ms_since t0 /. 1000.

(* Nearest-rank percentile: the smallest sample with at least [q] of
   the samples at or below it. *)
let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let percentile samples q =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    let s = Array.copy samples in
    Array.sort compare s;
    s.(rank n q - 1)
  end

let median samples = percentile samples 0.5

(* Samples strictly above the [q] percentile's rank. *)
let beyond n q = if n = 0 then 0 else n - rank n q

let sum = Array.fold_left ( +. ) 0.
let mean a = if a = [||] then 0. else sum a /. float_of_int (Array.length a)
let pct num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den
(* The first 64 bits of an MD5, in hex: enough to tell outputs apart,
   half the size in the committed tables. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let lines_of path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* Peak resident set (VmHWM) of a process, in MB; [pid] "self" for this
   one. *)
let vm_hwm_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

let llc_name = function
  | Cache.Llc.Private -> "private"
  | Cache.Llc.Shared -> "shared"

let llcs = [ Cache.Llc.Private; Cache.Llc.Shared ]

(* Fisher-Yates permutation of a list, via the repo's seeded sampler. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  Array.map (fun i -> a.(i)) (Sched.Arrivals.shuffle rng (Array.length a))
