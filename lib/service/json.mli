(** Minimal JSON values for the serving front-end.

    The request/response wire format of {!Api} is JSON lines; this
    module is the self-contained encoder/decoder it rides on (the
    toolchain carries no JSON library, and the service only needs the
    scalar-heavy subset below).

    Printing is deterministic: object fields keep their construction
    order, floats print with the shortest representation that
    round-trips, and no whitespace is emitted — two structurally equal
    values always print byte-identically, which the batch determinism
    guarantee of {!Api.submit_batch} relies on.

    {b Thread safety}: values are immutable and the encoder/decoder
    keep no shared state; all functions are safe to call from
    concurrent {!Par.Pool} workers without synchronisation. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line, deterministic encoding. *)

val of_string : string -> (t, string) result
(** Parses one JSON value (surrounding whitespace allowed; trailing
    garbage is an error). Errors carry a character offset. *)

(** {2 Accessors}

    All return [Error] with a descriptive message on shape mismatch —
    the request decoder surfaces these verbatim. *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] for absent fields or non-objects. *)

val to_int : t -> (int, string) result
(** Accepts [Int] and integral [Float]. *)

val to_float : t -> (float, string) result
(** Accepts [Float] and [Int]. *)

val to_bool : t -> (bool, string) result

val to_str : t -> (string, string) result

val to_list : t -> (t list, string) result

val obj_fields : t -> ((string * t) list, string) result
