(* Near-miss negative: the same [cache]/[lookup] reached from a
   [Domain.spawn] worker, but only through the guard wrapper
   [with_lock], which holds [lock] while its closure runs — so there
   is no unguarded-global finding. *)

let lock = Mutex.create ()
let cache : (string, int) Hashtbl.t = Hashtbl.create 64

let lookup key =
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
      let v = String.length key in
      Hashtbl.replace cache key v;
      v

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let warm keys = List.iter (fun k -> ignore (with_lock (fun () -> lookup k))) keys

let spawn_warmer keys = Domain.spawn (fun () -> warm keys)
