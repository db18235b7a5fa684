type frame =
  | Line of string
  | Too_long of int

(* Connection-confined by contract (see the .mli): one handler domain
   owns each framer, so the mutable state below needs no lock. *)
type t = {
  max_line : int;
  acc : Buffer.t;  (** the current incomplete line *)
  pending : frame Queue.t;  (** complete frames not yet taken *)
  mutable discarded : int;  (* connection-confined, see .mli *)
  mutable discarding : bool;
  mutable closed : bool;
}

let default_max_line_bytes = 1 lsl 20

let create ?(max_line_bytes = default_max_line_bytes) () =
  if max_line_bytes <= 0 then
    invalid_arg "Frame.create: max_line_bytes must be positive";
  {
    max_line = max_line_bytes;
    acc = Buffer.create 256;
    pending = Queue.create ();
    discarded = 0;
    discarding = false;
    closed = false;
  }

let is_closed t = t.closed

let buffered_bytes t = Buffer.length t.acc

(* Emit the buffered line, stripping one trailing CR so CRLF and LF
   streams frame identically. *)
let emit_line t =
  let n = Buffer.length t.acc in
  let line =
    if n > 0 && Buffer.nth t.acc (n - 1) = '\r' then Buffer.sub t.acc 0 (n - 1)
    else Buffer.contents t.acc
  in
  Buffer.clear t.acc;
  Queue.push (Line line) t.pending

let emit_too_long t =
  (* A CRLF terminator leaves the CR counted in [discarded]; length
     reporting for a discarded line need not split that hair. *)
  Queue.push (Too_long t.discarded) t.pending;
  t.discarded <- 0;
  t.discarding <- false

let feed t buf pos len =
  if t.closed then invalid_arg "Frame.feed: framer is closed";
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Frame.feed: range out of bounds";
  for i = pos to pos + len - 1 do
    let c = Bytes.get buf i in
    if t.discarding then
      if c = '\n' then emit_too_long t else t.discarded <- t.discarded + 1
    else if c = '\n' then emit_line t
    else begin
      Buffer.add_char t.acc c;
      if Buffer.length t.acc > t.max_line then begin
        t.discarded <- Buffer.length t.acc;
        t.discarding <- true;
        Buffer.clear t.acc
      end
    end
  done

let close t =
  if not t.closed then begin
    t.closed <- true;
    if t.discarding then emit_too_long t
    else if Buffer.length t.acc > 0 then emit_line t
  end

let next t = Queue.take_opt t.pending
