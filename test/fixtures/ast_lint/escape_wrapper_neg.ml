(* Near-miss negative: the spawned closure touches [hits] only inside
   [with_lock], a guard wrapper built from [Mutex.lock] and
   [Fun.protect] rather than [Mutex.protect]. The lock is held while
   the wrapped closure runs, so there is no domain-escape finding. *)

let lock = Mutex.create ()
let hits = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let spawn_counter () =
  Domain.spawn (fun () -> with_lock (fun () -> hits := !hits + 1))
