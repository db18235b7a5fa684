type job = {
  trace : Ir.Trace.t;
  schedule_of_step : int -> Schedule.t;
  steps : int;
  cores : int array;
  step_overhead : int -> int;
}

let job ?steps ?(cores = [||]) ?(step_overhead = fun _ -> 0) ~trace
    ~schedule_of_step () =
  let steps =
    match steps with
    | Some s -> s
    | None -> (Ir.Trace.program trace).Ir.Program.time_steps
  in
  if steps <= 0 then invalid_arg "Engine.job: non-positive steps";
  { trace; schedule_of_step; steps; cores; step_overhead }

type result = {
  stats : Stats.t;
  job_finish : int array;
  net_latency_histogram : int array;
  link_busy : int array;
  events : int;
}

(* Per-core execution cursor. *)
type core_state = {
  mutable job : int;  (* -1 = idle *)
  mutable sets : Ir.Iter_set.t list;  (* remaining sets of current phase *)
  mutable step : int;  (* timing-loop step of the current phase *)
  mutable nest : int;
  mutable iter : int;  (* next parallel iteration of current set *)
  mutable iter_hi : int;  (* end of current set *)
  buf : int array;  (* current iteration's encoded accesses *)
  sc : Ir.Trace.scratch;  (* loop variables for filling [buf] *)
  mutable buf_len : int;
  mutable buf_pos : int;
  mutable pend_pa : int;  (* physical address of pending shared tx; -1 *)
  mutable pend_write : bool;
  mutable pend_victim : int;  (* victim line address; -1 *)
  mutable pend_victim_dirty : bool;
  mutable time : int;
}

type job_state = {
  j : job;
  jid : int;
  mutable step : int;
  mutable nest : int;
  mutable remaining : int;  (* cores still executing the current phase *)
  mutable phase_finish : int;
  mutable finish : int;
  mutable done_ : bool;
}

(* Deferred events: later stages of a miss transaction, scheduled at
   their actual start times so the network and DRAM only ever see
   traffic in (approximately) global-time order. Sending a response at
   its post-DRAM timestamp directly from the initial request event
   would reserve links far in the future and stall unrelated earlier
   packets behind phantom traffic.

   An event is a kind and up to three int operands, kept in four
   parallel int arrays indexed by slot, so scheduling one writes
   immediates rather than allocating a block and storing a pointer
   into a major-heap array. *)

(* a = src, b = core: data packet src -> core node, then the core resumes *)
let resp_to_core = 0

(* a = MC node, b = bank, c = core: S-NUCA fill, data MC -> bank, then
   bank -> core *)
let resp_via_bank = 1

(* a = core: the request reached the home bank *)
let bank_access = 2

(* a = src, b = victim line: fire-and-forget dirty writeback towards the
   victim's MC *)
let wb_to_mc = 3

(* a = src, b = victim line: fire-and-forget L1 victim towards its home
   bank *)
let wb_to_bank = 4

(* the kind of a free slot *)
let fired = -1

type state = {
  cfg : Config.t;
  topo : Noc.Topology.t;
  amap : Addr_map.t;
  net : Noc.Network.t;
  l1 : Cache.Sa_cache.t array;
  l2 : Cache.Sa_cache.t array;
  bank_free : int array;  (* shared-org bank port occupancy *)
  drams : Mem.Dram.t array;
  heap : Des.Event_heap.t;
  cores : core_state array;
  jobs : job_state array;
  stats : Stats.t;
  data_flits : int;
  shared : bool;
  mutable ev_kind : int array;
  mutable ev_a : int array;
  mutable ev_b : int array;
  mutable ev_c : int array;
  mutable deferred_count : int;  (* slots ever handed out *)
  mutable free_slots : int array;  (* slots whose event has fired *)
  mutable free_count : int;
  mutable events : int;  (* heap events popped *)
}

let new_core_state ~buf sc =
  {
    job = -1;
    sets = [];
    step = 0;
    nest = 0;
    iter = 0;
    iter_hi = 0;
    buf;
    sc;
    buf_len = 0;
    buf_pos = 0;
    pend_pa = -1;
    pend_write = false;
    pend_victim = -1;
    pend_victim_dirty = false;
    time = 0;
  }

let max_appi trace =
  let m = ref 1 in
  for nest = 0 to Ir.Trace.num_nests trace - 1 do
    m := max !m (Ir.Trace.accesses_per_par_iter trace ~nest)
  done;
  !m

(* Load the next iteration set (if any) into the cursor. *)
let next_set cs =
  match cs.sets with
  | [] -> false
  | s :: rest ->
      cs.sets <- rest;
      cs.iter <- s.Ir.Iter_set.lo;
      cs.iter_hi <- s.Ir.Iter_set.hi;
      true

(* Start phase (js.step, js.nest) for all of the job's cores at [t0].
   Returns the number of cores that received work. *)
let start_phase st js t0 =
  let sched = js.j.schedule_of_step js.step in
  let with_work = ref 0 in
  Array.iter
    (fun core ->
      let cs = st.cores.(core) in
      cs.job <- js.jid;
      cs.step <- js.step;
      cs.nest <- js.nest;
      cs.sets <- Schedule.sets_of_core_nest sched ~core ~nest:js.nest;
      cs.buf_len <- 0;
      cs.buf_pos <- 0;
      cs.pend_pa <- -1;
      (* The barrier release itself propagates over the NoC: cores
         farther from the releasing node start a few cycles later. *)
      let skew =
        Noc.Routing.hop_count st.topo ~src:0 ~dst:core
        * (st.cfg.Config.router_overhead + 1)
      in
      cs.time <- t0 + skew;
      if next_set cs then begin
        incr with_work;
        Des.Event_heap.push st.heap ~time:(t0 + skew) ~id:core
      end)
    js.j.cores;
  js.remaining <- !with_work;
  js.phase_finish <- t0;
  !with_work

(* Advance the job to its next phase; called when the barrier opens. *)
let rec advance_job st js =
  let num_nests = Ir.Trace.num_nests js.j.trace in
  let t = js.phase_finish in
  if js.nest + 1 < num_nests then begin
    js.nest <- js.nest + 1;
    if start_phase st js t = 0 then begin
      js.phase_finish <- t;
      advance_job st js
    end
  end
  else begin
    (* End of a timing-loop step: charge the runtime-scheme overhead. *)
    let ov = js.j.step_overhead js.step in
    if ov < 0 then invalid_arg "Engine: negative step overhead";
    st.stats.Stats.overhead_cycles <- st.stats.Stats.overhead_cycles + ov;
    let t = t + ov in
    if js.step + 1 < js.j.steps then begin
      js.step <- js.step + 1;
      js.nest <- 0;
      if start_phase st js t = 0 then begin
        js.phase_finish <- t;
        advance_job st js
      end
    end
    else begin
      js.finish <- t;
      js.done_ <- true
    end
  end

let finish_phase_core st cs t =
  let js = st.jobs.(cs.job) in
  cs.job <- -1;
  if t > js.phase_finish then js.phase_finish <- t;
  js.remaining <- js.remaining - 1;
  if js.remaining = 0 then advance_job st js

let num_core_ids st = Array.length st.cores

(* A fired event's slot is reused, so the table stays as large as the
   most events ever pending at once rather than growing with every
   miss. The heap orders by time alone, so which slot an event gets
   never changes the pop order. *)
let schedule_deferred st ~time kind a b c =
  let slot =
    if st.free_count > 0 then begin
      st.free_count <- st.free_count - 1;
      st.free_slots.(st.free_count)
    end
    else begin
      if st.deferred_count = Array.length st.ev_kind then begin
        let n = Array.length st.ev_kind in
        let grow a fill =
          let bigger = Array.make (2 * n) fill in
          Array.blit a 0 bigger 0 n;
          bigger
        in
        st.ev_kind <- grow st.ev_kind fired;
        st.ev_a <- grow st.ev_a 0;
        st.ev_b <- grow st.ev_b 0;
        st.ev_c <- grow st.ev_c 0;
        st.free_slots <- grow st.free_slots 0
      end;
      st.deferred_count <- st.deferred_count + 1;
      st.deferred_count - 1
    end
  in
  st.ev_kind.(slot) <- kind;
  st.ev_a.(slot) <- a;
  st.ev_b.(slot) <- b;
  st.ev_c.(slot) <- c;
  Des.Event_heap.push st.heap ~time ~id:(num_core_ids st + slot)

(* The core's pending access completed: consume it and resume. *)
let resume_core st core t =
  let cs = st.cores.(core) in
  cs.pend_pa <- -1;
  cs.pend_victim <- -1;
  cs.pend_victim_dirty <- false;
  cs.buf_pos <- cs.buf_pos + 1;
  cs.time <- t;
  Des.Event_heap.push st.heap ~time:t ~id:core

(* Execute the first stage of core [c]'s pending transaction at time
   [t]: inject the request and schedule the later stages at their own
   times. *)
let execute_shared st c t =
  let cs = st.cores.(c) in
  let pa = cs.pend_pa in
  let node = c in
  if not st.shared then begin
    (* Private LLC: the local bank already missed; fetch from memory. *)
    if cs.pend_victim_dirty && cs.pend_victim >= 0 then
      schedule_deferred st ~time:t wb_to_mc node cs.pend_victim 0;
    let mc = Addr_map.mc_of st.amap pa in
    let mcn = Addr_map.mc_node st.amap mc in
    let t1 = Noc.Network.send st.net ~now:t ~src:node ~dst:mcn ~flits:1 in
    let t2 = Mem.Dram.service st.drams.(mc) ~now:t1 ~addr:pa in
    schedule_deferred st ~time:t2 resp_to_core mcn c 0
  end
  else begin
    (* Shared LLC (S-NUCA): the L1 victim (if dirty) flows to its own
       home bank; the request travels to the line's home bank. *)
    if cs.pend_victim_dirty && cs.pend_victim >= 0 then
      schedule_deferred st ~time:t wb_to_bank node cs.pend_victim 0;
    let bank = Addr_map.bank_node_of st.amap pa in
    let t1 = Noc.Network.send st.net ~now:t ~src:node ~dst:bank ~flits:1 in
    schedule_deferred st ~time:t1 bank_access c 0 0
  end

(* The request of [core]'s pending transaction reached the home bank. *)
let run_bank_access st ~core t =
  let cs = st.cores.(core) in
  let pa = cs.pend_pa in
  let bank = Addr_map.bank_node_of st.amap pa in
  let t1 = Int.max t st.bank_free.(bank) in
  let t2 = t1 + st.cfg.Config.l2_hit_lat in
  st.bank_free.(bank) <- t2;
  let l2 = st.l2.(bank) in
  if Cache.Sa_cache.access_hit l2 ~addr:pa ~write:cs.pend_write then begin
    st.stats.Stats.llc_hits <- st.stats.Stats.llc_hits + 1;
    schedule_deferred st ~time:t2 resp_to_core bank core 0
  end
  else begin
    st.stats.Stats.llc_misses <- st.stats.Stats.llc_misses + 1;
    let victim = Cache.Sa_cache.victim_line_addr l2 in
    if Cache.Sa_cache.victim_dirty l2 && victim >= 0 then
      schedule_deferred st ~time:t2 wb_to_mc bank victim 0;
    let mc = Addr_map.mc_of st.amap pa in
    let mcn = Addr_map.mc_node st.amap mc in
    let t3 = Noc.Network.send st.net ~now:t2 ~src:bank ~dst:mcn ~flits:1 in
    let t4 = Mem.Dram.service st.drams.(mc) ~now:t3 ~addr:pa in
    schedule_deferred st ~time:t4 resp_via_bank mcn bank core
  end

let run_deferred st kind a b c t =
  if kind = resp_to_core then
    let arrive =
      Noc.Network.send st.net ~now:t ~src:a ~dst:b ~flits:st.data_flits
    in
    resume_core st b (arrive + st.cfg.Config.l1_hit_lat)
  else if kind = resp_via_bank then
    let arrive =
      Noc.Network.send st.net ~now:t ~src:a ~dst:b ~flits:st.data_flits
    in
    schedule_deferred st ~time:arrive resp_to_core b c 0
  else if kind = bank_access then run_bank_access st ~core:a t
  else if kind = wb_to_mc then begin
    let mc = Addr_map.mc_of st.amap b in
    let arrive =
      Noc.Network.send st.net ~now:t ~src:a
        ~dst:(Addr_map.mc_node st.amap mc) ~flits:st.data_flits
    in
    ignore (Mem.Dram.service st.drams.(mc) ~now:arrive ~addr:b);
    st.stats.Stats.writebacks <- st.stats.Stats.writebacks + 1
  end
  else begin
    (* wb_to_bank *)
    let bank = Addr_map.bank_node_of st.amap b in
    ignore (Noc.Network.send st.net ~now:t ~src:a ~dst:bank ~flits:st.data_flits);
    st.stats.Stats.writebacks <- st.stats.Stats.writebacks + 1
  end

(* Run core [c] forward from time [t] through private-level work until
   it needs a shared resource, exhausts its phase, or parks a pending
   transaction. *)
let advance_private st c t =
  let cs = st.cores.(c) in
  let trace = st.jobs.(cs.job).j.trace in
  cs.time <- t;
  let continue = ref true in
  while !continue do
    if cs.buf_pos < cs.buf_len then begin
      let enc = cs.buf.(cs.buf_pos) in
      let va = Ir.Trace.decode_addr enc in
      let write = Ir.Trace.decode_write enc in
      let pa = Addr_map.translate st.amap va in
      st.stats.Stats.accesses <- st.stats.Stats.accesses + 1;
      let l1 = st.l1.(c) in
      if Cache.Sa_cache.access_hit l1 ~addr:pa ~write then begin
        st.stats.Stats.l1_hits <- st.stats.Stats.l1_hits + 1;
        cs.time <- cs.time + st.cfg.Config.l1_hit_lat;
        cs.buf_pos <- cs.buf_pos + 1
      end
      else begin
        st.stats.Stats.l1_misses <- st.stats.Stats.l1_misses + 1;
        if st.shared then begin
          (* Any L1 miss goes over the network to the home bank. *)
          cs.pend_pa <- pa;
          cs.pend_write <- write;
          cs.pend_victim <- Cache.Sa_cache.victim_line_addr l1;
          cs.pend_victim_dirty <- Cache.Sa_cache.victim_dirty l1;
          Des.Event_heap.push st.heap ~time:cs.time ~id:c;
          continue := false
        end
        else begin
          (* Private LLC: probe the local bank without network. *)
          let l2 = st.l2.(c) in
          if Cache.Sa_cache.access_hit l2 ~addr:pa ~write then begin
            st.stats.Stats.llc_hits <- st.stats.Stats.llc_hits + 1;
            cs.time <- cs.time + st.cfg.Config.l2_hit_lat;
            cs.buf_pos <- cs.buf_pos + 1
          end
          else begin
            st.stats.Stats.llc_misses <- st.stats.Stats.llc_misses + 1;
            cs.pend_pa <- pa;
            cs.pend_write <- write;
            cs.pend_victim <- Cache.Sa_cache.victim_line_addr l2;
            cs.pend_victim_dirty <- Cache.Sa_cache.victim_dirty l2;
            Des.Event_heap.push st.heap ~time:cs.time ~id:c;
            continue := false
          end
        end
      end
    end
    else if cs.iter < cs.iter_hi then begin
      (* Charge the iteration's arithmetic — with a deterministic
         +/-12.5% per-(core, iteration) variation. Real cores never stay
         in exact cycle lockstep (variable instruction paths, OS noise);
         without the variation, barrier-synchronised cores issue their
         misses in perfectly simultaneous convoys and congestion is
         grossly overstated. Then expand the iteration's accesses. *)
      let compute = Ir.Trace.compute_cycles_per_par_iter trace ~nest:cs.nest in
      let jitter =
        if compute >= 8 then
          let h = Mem.Address.mix ((c * 0x9E3779B9) + (cs.iter * 31) + cs.nest) in
          (h mod (compute / 4)) - (compute / 8)
        else 0
      in
      cs.time <- cs.time + compute + jitter;
      cs.buf_len <-
        Ir.Trace.fill_iteration_s trace cs.sc ~step:cs.step ~nest:cs.nest
          ~iter:cs.iter ~buf:cs.buf;
      cs.buf_pos <- 0;
      cs.iter <- cs.iter + 1
    end
    else if next_set cs then ()
    else begin
      finish_phase_core st cs cs.time;
      continue := false
    end
  done

let process st id t =
  if id < num_core_ids st then begin
    let cs = st.cores.(id) in
    if cs.pend_pa >= 0 then execute_shared st id t
    else advance_private st id t
  end
  else begin
    let slot = id - num_core_ids st in
    let kind = st.ev_kind.(slot) in
    if kind = fired then invalid_arg "Engine: deferred event fired twice";
    st.ev_kind.(slot) <- fired;
    st.free_slots.(st.free_count) <- slot;
    st.free_count <- st.free_count + 1;
    run_deferred st kind st.ev_a.(slot) st.ev_b.(slot) st.ev_c.(slot) t
  end

let run ?(ideal_network = false) ?page_table cfg jobs =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error e -> invalid_arg ("Engine.run: " ^ e));
  if jobs = [] then invalid_arg "Engine.run: no jobs";
  let pt =
    match page_table with
    | Some pt -> pt
    | None -> Mem.Page_table.create ~page_size:cfg.Config.page_size ()
  in
  let amap = Addr_map.create cfg pt in
  let topo = Addr_map.topology amap in
  let n = Noc.Topology.num_nodes topo in
  (* Default core assignment: a single job gets all cores. *)
  let jobs =
    List.map
      (fun (j : job) ->
        if j.cores = [||] then { j with cores = Array.init n Fun.id } else j)
      jobs
  in
  (* Core sets must be disjoint and in range. *)
  let owner = Array.make n (-1) in
  List.iteri
    (fun jid (j : job) ->
      Array.iter
        (fun c ->
          if c < 0 || c >= n then invalid_arg "Engine.run: core out of range";
          if owner.(c) >= 0 then invalid_arg "Engine.run: overlapping job cores";
          owner.(c) <- jid)
        j.cores)
    jobs;
  List.iter
    (fun (j : job) ->
      let mine = Array.make n false in
      Array.iter (fun c -> mine.(c) <- true) j.cores;
      for step = 0 to j.steps - 1 do
        let sched = j.schedule_of_step step in
        (match Schedule.validate sched ~num_cores:n with
        | Ok () -> ()
        | Error e -> invalid_arg ("Engine.run: " ^ e));
        Array.iter
          (fun c ->
            if not mine.(c) then
              invalid_arg
                "Engine.run: schedule assigns a set to a core outside the job"
            )
          sched.Schedule.core_of
      done)
    jobs;
  let st =
    {
      cfg;
      topo;
      amap;
      net =
        Noc.Network.create ~ideal:ideal_network
          ~router_overhead:cfg.Config.router_overhead topo;
      l1 =
        Array.init n (fun _ ->
            Cache.Sa_cache.create ~size:cfg.Config.l1_size
              ~assoc:cfg.Config.l1_assoc ~line_size:cfg.Config.l1_line ());
      l2 =
        Array.init n (fun _ ->
            Cache.Sa_cache.create ~size:cfg.Config.l2_size
              ~assoc:cfg.Config.l2_assoc ~line_size:cfg.Config.l2_line ());
      bank_free = Array.make n 0;
      drams =
        Array.init (Noc.Topology.num_mcs topo) (fun _ ->
            Mem.Dram.create ~kind:cfg.Config.dram_kind
              ~row_buffer:cfg.Config.row_buffer ());
      heap = Des.Event_heap.create ~capacity:(4 * n);
      cores =
        (* Each core's iteration buffer and scratch are sized for its
           job's trace. An idle core never fills an iteration. *)
        (let traces = Array.of_list (List.map (fun (j : job) -> j.trace) jobs) in
         Array.init n (fun c ->
             let trace = traces.(max 0 owner.(c)) in
             let buf =
               if owner.(c) < 0 then [||] else Array.make (max_appi trace) 0
             in
             new_core_state ~buf (Ir.Trace.make_scratch trace)));
      jobs =
        Array.of_list
          (List.mapi
             (fun jid j ->
               {
                 j;
                 jid;
                 step = 0;
                 nest = 0;
                 remaining = 0;
                 phase_finish = 0;
                 finish = 0;
                 done_ = false;
               })
             jobs);
      stats = Stats.create ();
      data_flits = Config.data_flits cfg;
      shared = Cache.Llc.equal cfg.Config.llc_org Cache.Llc.Shared;
      ev_kind = Array.make 1024 fired;
      ev_a = Array.make 1024 0;
      ev_b = Array.make 1024 0;
      ev_c = Array.make 1024 0;
      deferred_count = 0;
      free_slots = Array.make 1024 0;
      free_count = 0;
      events = 0;
    }
  in
  Array.iter
    (fun js ->
      if start_phase st js 0 = 0 then advance_job st js)
    st.jobs;
  while not (Des.Event_heap.is_empty st.heap) do
    let t = Des.Event_heap.min_time st.heap in
    let id = Des.Event_heap.pop_id st.heap in
    st.events <- st.events + 1;
    process st id t
  done;
  (* Fold shared-resource statistics into the result. *)
  st.stats.Stats.net_latency <- Noc.Network.total_latency st.net;
  st.stats.Stats.net_queueing <- Noc.Network.total_queueing st.net;
  st.stats.Stats.net_packets <- Noc.Network.packets_sent st.net;
  st.stats.Stats.net_hops <- Noc.Network.total_hops st.net;
  Array.iter
    (fun d ->
      st.stats.Stats.dram_row_hits <-
        st.stats.Stats.dram_row_hits + Mem.Dram.row_hits d;
      st.stats.Stats.dram_row_misses <-
        st.stats.Stats.dram_row_misses + Mem.Dram.row_misses d)
    st.drams;
  let job_finish = Array.map (fun js -> js.finish) st.jobs in
  st.stats.Stats.cycles <- Array.fold_left max 0 job_finish;
  {
    stats = st.stats;
    job_finish;
    net_latency_histogram = Noc.Network.latency_histogram st.net;
    link_busy = Noc.Network.link_busy st.net;
    events = st.events;
  }

let run_single ?ideal_network ?page_table cfg ~trace ~schedule () =
  run ?ideal_network ?page_table cfg
    [ job ~trace ~schedule_of_step:(fun _ -> schedule) () ]
