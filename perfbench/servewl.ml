(* serve-zipf: an open loop of Poisson arrivals over a Zipf-skewed mix,
   sent by one single-threaded generator over one connection to
   `locmap serve` running as its own process. Every latency is timed
   from the request's due time, so a stall also delays the requests
   scheduled behind it; every sample is kept.

   One connection and one pool domain: on a 2-core host a second
   connection adds a server handler domain, and two computing domains
   plus the generator oversubscribe the cores (README.md, "Why these
   shapes"). *)

open Util

let rate = 100. (* offered load, requests per second *)
let zipf_s = 1.8
let domains = 1

(* slo_pct counts a send as met when it is answered ok within this
   limit of its due time. *)
let limit_ms = 100.

(* Warm-up: the distinct keys of this many Zipf draws fill the cache
   with mostly-hot keys before timing. *)
let warm_draws = 192

(* How long to wait for answers after the last send. *)
let tail_s = 30.

(* {1 The server process and its connection} *)

type server = {
  pid : int;
  spawned : int64;
  metrics_file : string option;
  fd : Unix.file_descr;
  reader : Net.Frame.t;
}

let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~exe ~out_dir ~metrics =
  let port_file = Filename.concat out_dir "serve.port" in
  if Sys.file_exists port_file then Sys.remove port_file;
  let metrics_file =
    if metrics then Some (Filename.concat out_dir "serve-metrics.json") else None
  in
  let args =
    [ exe; "serve"; "--port"; "0"; "--port-file"; port_file; "-d";
      string_of_int domains ]
    @ match metrics_file with Some f -> [ "--metrics"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let spawned = now_ns () in
  let pid = Unix.create_process exe (Array.of_list args) devnull devnull devnull in
  Unix.close devnull;
  live := pid :: !live;
  let rec wait_port () =
    let port =
      if Sys.file_exists port_file then
        int_of_string_opt (String.trim (read_file port_file))
      else None
    in
    match port with
    | Some p when p > 0 -> p
    | _ ->
        if s_since spawned > 30. then failwith "server never came up";
        Unix.sleepf 0.002;
        wait_port ()
  in
  let port = wait_port () in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { pid; spawned; metrics_file; fd; reader = Net.Frame.create () }

(* Closes the connection, reads the server's peak RSS, then stops it
   with SIGTERM (a clean drain, which also writes its metrics) and
   reaps it. Returns the RSS in MB and the server's lifetime. *)
let finish srv =
  (try Unix.close srv.fd with Unix.Unix_error _ -> ());
  let rss = vm_hwm_mb (string_of_int srv.pid) in
  let life_s = s_since srv.spawned in
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let rec reap () =
    match Unix.waitpid [] srv.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  live := List.filter (fun p -> p <> srv.pid) !live;
  (rss, life_s)

let send srv line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write srv.fd b off (Bytes.length b - off))
  in
  go 0

let buf = Bytes.create 65536

(* Reads what is available and returns the complete lines; raises
   End_of_file when the server closed the connection. *)
let read_lines srv =
  match Unix.read srv.fd buf 0 (Bytes.length buf) with
  | 0 -> raise End_of_file
  | got ->
      Net.Frame.feed srv.reader buf 0 got;
      let rec frames acc =
        match Net.Frame.next srv.reader with
        | Some (Net.Frame.Line l) -> frames (l :: acc)
        | Some (Net.Frame.Too_long _) -> frames ("" :: acc)
        | None -> List.rev acc
      in
      frames []

(* {1 Load} *)

(* The request mix is part of the workload's definition, not of the
   seed: the Zipf rank permutation, the warm-up draws and the sequence
   of requested keys come from a fixed RNG, so every seed serves the
   same keys in the same order and misses the same ones. The seed draws
   the arrival times. (With seeded keys, how many of the few heaviest
   misses a run drew moved p99 by 20% across seeds.) *)
let mix_seed = 0x5eed

type mix = {
  universe : string array;
  zipf : Sched.Arrivals.zipf;
  keys : Random.State.t;  (** draws the requested keys *)
  arrivals : Random.State.t;  (** draws the arrival times, from the seed *)
  warm : int list;
}

let mix ~seed =
  let universe = Universe.serve_universe () in
  let keys = Random.State.make [| mix_seed |] in
  let zipf = Sched.Arrivals.zipf keys ~s:zipf_s ~n:(Array.length universe) in
  let warm =
    List.sort_uniq compare
      (List.init warm_draws (fun _ -> Sched.Arrivals.zipf_sample zipf keys))
  in
  { universe; zipf; keys; arrivals = Random.State.make [| seed |]; warm }

(* Exactly [rate * seconds] Poisson arrivals over [0, seconds] (the
   order statistics of a Poisson process conditioned on its count), so
   every seed offers the same load: due offsets and universe indices. *)
let schedule m ~seconds =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let gaps =
    Array.init (n + 1) (fun _ -> Sched.Arrivals.exponential m.arrivals ~rate)
  in
  let total = Array.fold_left ( +. ) 0. gaps in
  let t = ref 0. in
  Array.init n (fun i ->
      t := !t +. gaps.(i);
      (seconds *. !t /. total, Sched.Arrivals.zipf_sample m.zipf m.keys))

(* Set-up: server start to ready, connection, and a cache fill that
   pipelines the warm-up keys. *)
let setup ~exe ~out_dir ~metrics m =
  let srv = spawn ~exe ~out_dir ~metrics in
  List.iter (fun k -> send srv m.universe.(k)) m.warm;
  let pending = ref (List.length m.warm) in
  while !pending > 0 do
    pending := !pending - List.length (read_lines srv)
  done;
  (srv, s_since srv.spawned)

type send = {
  key : int;
  first : bool;  (** key not sent before to this server *)
  lag_ms : float;  (** actual send minus due time *)
  latency_ms : float;  (** response read minus due time; nan if unanswered *)
  response : string;
}

let open_loop srv m ~seconds =
  let plan = schedule m ~seconds in
  let n = Array.length plan in
  let seen = Hashtbl.create 1024 in
  List.iter (fun k -> Hashtbl.replace seen k ()) m.warm;
  let first =
    Array.map
      (fun (_, k) ->
        let f = not (Hashtbl.mem seen k) in
        Hashtbl.replace seen k ();
        f)
      plan
  in
  let lag = Array.make n nan and latency = Array.make n nan in
  let response = Array.make n "" in
  (* The server answers a connection in line order: responses match
     sends first in, first out. *)
  let inflight = Queue.create () in
  let closed = ref false in
  let t0 = now_ns () in
  let due i = fst plan.(i) *. 1000. in
  let next = ref 0 in
  let receive () =
    match read_lines srv with
    | lines ->
        List.iter
          (fun l ->
            Option.iter
              (fun i ->
                latency.(i) <- ms_since t0 -. due i;
                response.(i) <- l)
              (Queue.take_opt inflight))
          lines
    | exception (End_of_file | Unix.Unix_error _) -> closed := true
  in
  while
    (not !closed)
    && (!next < n || ((not (Queue.is_empty inflight)) && s_since t0 < seconds +. tail_s))
  do
    while (not !closed) && !next < n && fst plan.(!next) <= s_since t0 do
      let i = !next in
      lag.(i) <- ms_since t0 -. due i;
      (match send srv m.universe.(snd plan.(i)) with
      | () -> Queue.push i inflight
      | exception Unix.Unix_error _ -> closed := true);
      incr next
    done;
    let timeout =
      if !next < n then Float.max 0. (fst plan.(!next) -. s_since t0) else 0.1
    in
    if Queue.is_empty inflight then Unix.sleepf timeout
    else
      match Unix.select [ srv.fd ] [] [] timeout with
      | [], _, _ -> ()
      | _ -> receive ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.mapi
    (fun i (_, key) ->
      {
        key;
        first = first.(i);
        lag_ms = lag.(i);
        latency_ms = latency.(i);
        response = response.(i);
      })
    plan

type verdict = Ok_response | Shed | Error_response | Unanswered

let classify s =
  if Float.is_nan s.latency_ms then Unanswered
  else
    match Service.Json.of_string s.response with
    | Error _ -> Error_response
    | Ok j -> (
        match Service.Json.member "ok" j with
        | Some (Service.Json.Bool true) -> Ok_response
        | _ -> (
            match Option.bind (Service.Json.member "error" j) (Service.Json.member "kind") with
            | Some (Service.Json.String "overload") -> Shed
            | _ -> Error_response))

(* Counter totals (summed over label sets) from a metrics snapshot. *)
let counters file =
  let j = Result.get_ok (Service.Json.of_string (read_file file)) in
  let items =
    Result.get_ok (Service.Json.to_list (Option.get (Service.Json.member "metrics" j)))
  in
  fun name ->
    List.fold_left
      (fun acc s ->
        match (Service.Json.member "name" s, Service.Json.member "value" s) with
        | Some (Service.Json.String n), Some (Service.Json.Int v) when n = name -> acc + v
        | _ -> acc)
      0 items

(* One window's outcome counts and output checks: (failed, shed,
   unanswered, ok sends), where failed counts error responses and
   mismatching outputs. *)
let tally digests m sends =
  let count v = Array.fold_left (fun k s -> if classify s = v then k + 1 else k) 0 sends in
  let oks = List.filter (fun s -> classify s = Ok_response) (Array.to_list sends) in
  let bad =
    Check.responses digests (List.map (fun s -> (m.universe.(s.key), s.response)) oks)
  in
  (bad + count Error_response, count Shed, count Unanswered, oks)

let ok_latencies ?(pred = fun _ -> true) oks =
  Array.of_list (List.filter_map (fun s -> if pred s then Some s.latency_ms else None) oks)

let run ~exe ~out_dir ~seed ~seconds ~short ~expected : Outcome.t =
  let seconds = if short then 1. else seconds in
  (* Three set-ups for the set-up time; the last server is measured. *)
  let setups =
    List.init 3 (fun _ ->
        let m = mix ~seed in
        (m, setup ~exe ~out_dir ~metrics:false m))
  in
  List.iteri (fun i (_, (srv, _)) -> if i < 2 then ignore (finish srv)) setups;
  let setup_s = median (Array.of_list (List.map (fun (_, (_, t)) -> t) setups)) in
  let m, (srv, _) = List.nth setups 2 in
  let sends = open_loop srv m ~seconds in
  let rss, _ = finish srv in
  let bad, shed, unanswered, oks =
    tally (Universe.load_digests expected "serve-zipf") m sends
  in
  let n = Array.length sends in
  let lat = ok_latencies oks in
  let within = Array.fold_left (fun k x -> if x <= limit_ms then k + 1 else k) 0 lat in
  let failed = bad + shed + unanswered in
  Outcome.
    {
      correct = bad = 0;
      attempted = n;
      failed;
      notes =
        [
          Printf.sprintf
            "serve-zipf: %d sends at %.0f/s over one connection; %d ok, %d \
             shed, %d unanswered, %d bad; latency_p99_ms has %d samples \
             beyond it; slo limit %.0f ms; failed_pct %.3f"
            n rate (List.length oks) shed unanswered bad
            (beyond (Array.length lat) 0.99) limit_ms (pct failed n);
        ];
      metrics =
        [
          ("setup_s", setup_s);
          ("latency_p50_ms", median lat);
          ("latency_p99_ms", percentile lat 0.99);
          ("throughput_rps", float_of_int (List.length oks) /. seconds);
          ("slo_pct", pct within n);
          ("peak_rss_mb", rss);
        ];
    }

(* Traced: an untraced window, then a window against a server that
   collects metrics, whose snapshot gives the service, par and net
   numbers. The client classifies each send as a first-seen or repeated
   key. *)
let run_traced ~exe ~out_dir ~seed ~seconds ~short ~expected : Outcome.t =
  let half = if short then 1. else seconds /. 2. in
  let m = mix ~seed in
  let digests = Universe.load_digests expected "serve-zipf" in
  let window ~metrics =
    let srv, _ = setup ~exe ~out_dir ~metrics m in
    let sends = open_loop srv m ~seconds:half in
    let _, life_s = finish srv in
    (srv, sends, life_s, tally digests m sends)
  in
  let _, plain, _, (bad0, shed0, unans0, plain_oks) = window ~metrics:false in
  let srv, sends, life_s, (bad, shed, unanswered, oks) = window ~metrics:true in
  let c = counters (Option.get srv.metrics_file) in
  let attempted = Array.length plain + Array.length sends in
  let failed = bad0 + shed0 + unans0 + bad + shed + unanswered in
  let p50_plain = median (ok_latencies plain_oks) in
  let p50_traced = median (ok_latencies oks) in
  let hits = c "locmap_cache_hits_total" and misses = c "locmap_cache_misses_total" in
  let count name = float_of_int (c name) in
  Outcome.
    {
      correct = bad0 + bad = 0;
      attempted;
      failed;
      notes =
        [
          Printf.sprintf "serve-zipf traced: %d untraced + %d traced sends; %d failed"
            (Array.length plain) (Array.length sends) failed;
        ];
      metrics =
        [
          ("service.solution_cache.hit_pct", pct hits (hits + misses));
          ("service.solution_cache.evictions", count "locmap_cache_evictions_total");
          ("service.computed", count "locmap_requests_computed_total");
          ( "par.pool.busy_pct",
            100. *. count "locmap_pool_busy_ns_total" /. (1e9 *. life_s) );
          ("net.first_p50_ms", median (ok_latencies ~pred:(fun s -> s.first) oks));
          ("net.repeat_p50_ms", median (ok_latencies ~pred:(fun s -> not s.first) oks));
          ("net.admitted", count "locmap_net_admitted_total");
          ("net.shed", count "locmap_net_shed_total");
          ( "net.generator_lag_p99_ms",
            percentile
              (Array.of_list
                 (List.filter_map
                    (fun s -> if Float.is_nan s.lag_ms then None else Some s.lag_ms)
                    (Array.to_list sends)))
              0.99 );
          ("obs.trace_overhead_pct", 100. *. (p50_traced -. p50_plain) /. p50_plain);
          ("failed_pct", pct failed attempted);
        ];
    }
