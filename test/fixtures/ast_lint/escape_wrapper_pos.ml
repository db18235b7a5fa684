(* Seeded positive: the same spawned counter behind a wrapper named
   [with_lock] that takes no lock, so [hits] is mutated with no lock
   held — a data race with the submitting domain. The lint must report
   domain-escape: the wrapper is judged by what it does, not its name. *)

let hits = ref 0

let with_lock f = f ()

let spawn_counter () =
  Domain.spawn (fun () -> with_lock (fun () -> hits := !hits + 1))
