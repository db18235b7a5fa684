(* Seeded positive: [lookup] reads and fills the top-level mutable
   [cache] with no lock held, and a [Domain.spawn] worker reaches it
   through [warm] — so two domains race on the table. The lint must
   report unguarded-global at the uses in [lookup]. *)

let cache : (string, int) Hashtbl.t = Hashtbl.create 64

let lookup key =
  match Hashtbl.find_opt cache key with
  | Some v -> v
  | None ->
      let v = String.length key in
      Hashtbl.replace cache key v;
      v

let warm keys = List.iter (fun k -> ignore (lookup k)) keys

let spawn_warmer keys = Domain.spawn (fun () -> warm keys)
