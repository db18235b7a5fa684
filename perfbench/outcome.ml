(* What one workload run reports. [metrics] holds the end-to-end
   metrics of an untraced run or the per-layer metrics of a traced one;
   [notes] are human-readable lines printed before the result. *)
type t = {
  correct : bool;
  attempted : int;
  failed : int;
  notes : string list;
  metrics : (string * float) list;
}
