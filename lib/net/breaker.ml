type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half_open"

type config = {
  window : int;
  min_events : int;
  trip_ratio : float;
  open_ms : float;
  probes : int;
}

let default_config =
  { window = 64; min_events = 16; trip_ratio = 0.5; open_ms = 1_000.;
    probes = 3 }

type instruments = {
  i_state : Obs.Metrics.gauge;
  i_trips : Obs.Metrics.counter;
}

type t = {
  cfg : config;
  now : unit -> int64;
  lock : Mutex.t;  (** guards every mutable field below *)
  ring : bool array;  (** [true] = bad outcome; a sliding window *)
  mutable next : int;  (* guarded by [t.lock] *)
  mutable filled : int;  (* guarded by [t.lock] *)
  mutable bad : int;  (* guarded by [t.lock] *)
  mutable st : state;  (* guarded by [t.lock] *)
  mutable opened_at : int64;  (* guarded by [t.lock] *)
  mutable probes_out : int;  (* guarded by [t.lock] *)
  mutable probes_ok : int;  (* guarded by [t.lock] *)
  trips : int Atomic.t;
  obs : instruments option;
}

let gauge_of_state = function Closed -> 0 | Half_open -> 1 | Open -> 2

let create ?metrics ?(now = Obs.Clock.now_ns) cfg =
  if cfg.window < 1 then invalid_arg "Breaker.create: window must be >= 1";
  if cfg.min_events < 1 then
    invalid_arg "Breaker.create: min_events must be >= 1";
  if not (cfg.trip_ratio > 0. && cfg.trip_ratio <= 1.) then
    invalid_arg "Breaker.create: trip_ratio must be in (0, 1]";
  if cfg.open_ms <= 0. then
    invalid_arg "Breaker.create: open_ms must be positive";
  if cfg.probes < 1 then invalid_arg "Breaker.create: probes must be >= 1";
  let obs =
    Option.map
      (fun im ->
        {
          i_state =
            Obs.Metrics.gauge im
              ~help:"breaker state (0 closed, 1 half-open, 2 open)"
              "locmap_net_breaker_state";
          i_trips =
            Obs.Metrics.counter im ~help:"breaker trips into brownout"
              "locmap_net_breaker_trips_total";
        })
      metrics
  in
  {
    cfg;
    now;
    lock = Mutex.create ();
    ring = Array.make cfg.window false;
    next = 0;
    filled = 0;
    bad = 0;
    st = Closed;
    opened_at = 0L;
    probes_out = 0;
    probes_ok = 0;
    trips = Atomic.make 0;
    obs;
  }

(* All three helpers below run with [t.lock] held. *)

let set_state t st =
  t.st <- st;
  match t.obs with
  | Some i -> Obs.Metrics.set_gauge i.i_state (gauge_of_state st)
  | None -> ()

let clear_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.next <- 0;
  t.filled <- 0;
  t.bad <- 0

let trip t =
  Atomic.incr t.trips;
  (match t.obs with Some i -> Obs.Metrics.incr i.i_trips | None -> ());
  t.opened_at <- t.now ();
  t.probes_out <- 0;
  t.probes_ok <- 0;
  clear_window t;
  set_state t Open

let allow t =
  Mutex.protect t.lock (fun () ->
      match t.st with
      | Closed -> true
      | Open ->
          let elapsed_ms =
            Obs.Clock.ns_to_ms (Int64.sub (t.now ()) t.opened_at)
          in
          if elapsed_ms >= t.cfg.open_ms then begin
            set_state t Half_open;
            t.probes_out <- 1;
            t.probes_ok <- 0;
            true
          end
          else false
      | Half_open ->
          if t.probes_out < t.cfg.probes then begin
            t.probes_out <- t.probes_out + 1;
            true
          end
          else false)

let record t ~ok =
  Mutex.protect t.lock (fun () ->
      match t.st with
      | Open -> () (* a straggler from before the trip *)
      | Half_open ->
          if ok then begin
            t.probes_ok <- t.probes_ok + 1;
            if t.probes_ok >= t.cfg.probes then begin
              clear_window t;
              set_state t Closed
            end
          end
          else trip t
      | Closed ->
          let slot = t.next in
          t.next <- (slot + 1) mod t.cfg.window;
          if t.filled = t.cfg.window then begin
            if t.ring.(slot) then t.bad <- t.bad - 1
          end
          else t.filled <- t.filled + 1;
          t.ring.(slot) <- not ok;
          if not ok then t.bad <- t.bad + 1;
          if
            t.filled >= t.cfg.min_events
            && float_of_int t.bad
               >= t.cfg.trip_ratio *. float_of_int t.filled
          then trip t)

let state t = Mutex.protect t.lock (fun () -> t.st)
let trips_total t = Atomic.get t.trips
