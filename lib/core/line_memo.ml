(* Packed per-line location records. A mesh has well under 2^21 nodes,
   regions and MCs, so one 63-bit OCaml int holds all three fields. *)
let pack ~mc ~region ~node = (mc lsl 42) lor (region lsl 21) lor node
let node_of_loc loc = loc land 0x1FFFFF
let region_of_loc loc = (loc lsr 21) land 0x1FFFFF
let mc_of_loc loc = loc lsr 42

(* A location table beyond this many lines costs more to build and hold
   than the direct arithmetic it saves. Only an aperiodic map, whose
   table spans the footprint, can reach it. *)
let max_period = 1 lsl 22

(* Location prefix sums over the table: the symbolic CME tier resolves
   a contiguous line range's per-MC / per-region counts in O(1) per
   class instead of walking the lines. *)
type prefix = {
  mc_pre : int array array;  (* per MC: running count over the table *)
  region_pre : int array array;
  mc_tot : int array;  (* whole-table totals *)
  region_tot : int array;
}

(* A prefix beyond this many lines would cost more to build and hold
   than the enumeration it replaces. *)
let max_prefix_lines = 1 lsl 16

type t = {
  amap : Machine.Addr_map.t;
  regions : Region.t;
  line_size : int;
  line_shift : int;  (* log2 line_size: lookups shift, never divide *)
  line_mask : int;  (* line_size - 1 *)
  num_lines : int;  (* lines of the layout footprint *)
  exact : bool;
      (* The memo is line-granular: it is sound only when an LLC line
         never straddles a page (translation is page-granular), i.e.
         when [l2_line] divides [page_size] — true for every valid
         machine config, but checked so a hand-built config degrades to
         direct computation instead of silently misplacing lines. A
         non-power-of-two line size (equally impossible on a real
         machine) also degrades, so the hot lookups can shift and mask
         instead of dividing. *)
  period : int;  (* lines in [loc] *)
  periodic : bool;
      (* [loc] repeats past [period] (a structured map); otherwise it
         covers physical lines [0, period) only. *)
  loc : int array;  (* physical line mod period -> pack ~mc ~region ~node *)
  identity : bool;  (* translation is the identity *)
  flat : bool;  (* exact, periodic and identity: line l reads loc.(l mod period) *)
  page_lines : int;
  ppage : int array;  (* footprint page -> physical page; [||] under identity *)
  run_end : int array;
      (* footprint page -> first page past its physically contiguous
         run, so a range count costs one prefix query per run *)
  num_mcs : int;
  num_regions : int;
  prefix : prefix option;
  fallbacks : Obs.Metrics.counter option;
      (* Counted only on the slow (direct) branches, so the memo hit
         path stays a pure array load. *)
}

let log2_of line_size =
  let rec go s = if 1 lsl s >= line_size then s else go (s + 1) in
  go 0

let build_prefix loc ~num_mcs ~num_regions =
  let period = Array.length loc in
  let mc_pre = Array.init num_mcs (fun _ -> Array.make (period + 1) 0) in
  let region_pre =
    Array.init num_regions (fun _ -> Array.make (period + 1) 0)
  in
  for l = 0 to period - 1 do
    let p = loc.(l) in
    let mc = mc_of_loc p and rg = region_of_loc p in
    for m = 0 to num_mcs - 1 do
      mc_pre.(m).(l + 1) <- mc_pre.(m).(l) + if m = mc then 1 else 0
    done;
    for r = 0 to num_regions - 1 do
      region_pre.(r).(l + 1) <- region_pre.(r).(l) + if r = rg then 1 else 0
    done
  done;
  {
    mc_pre;
    region_pre;
    mc_tot = Array.map (fun pre -> pre.(period)) mc_pre;
    region_tot = Array.map (fun pre -> pre.(period)) region_pre;
  }

let direct_loc amap regions pa =
  let node = Machine.Addr_map.bank_node_of amap pa in
  pack
    ~mc:(Machine.Addr_map.mc_of amap pa)
    ~region:(Region.of_node regions node)
    ~node

(* The table covers one period of the address map's location pattern
   over physical lines, evaluated once per line of the period — never
   per line of the footprint. A map without a period (all-to-all
   hashing, SNC-4 with per-page domains) degenerates to a table over
   the footprint's lines. Remapped pages only change which physical
   line a virtual line reads, so they cost one translation per
   footprint page. *)
let create ?metrics (cfg : Machine.Config.t) amap layout =
  let fallbacks =
    match metrics with
    | None -> None
    | Some im ->
        Some
          (Obs.Metrics.counter im
             ~help:"location lookups that bypassed the line memo"
             "locmap_line_memo_fallback_lookups_total")
  in
  let line_size = cfg.l2_line in
  let regions = Region.create cfg in
  let footprint = Ir.Layout.footprint layout in
  let num_lines = (footprint + line_size - 1) / line_size in
  let pow2 = line_size > 0 && line_size land (line_size - 1) = 0 in
  let periodic, period =
    match Machine.Addr_map.period_lines amap with
    | Some p -> (true, p)
    | None -> (false, num_lines)
  in
  let exact =
    pow2
    && cfg.page_size mod line_size = 0
    && period > 0 && period <= max_period
  in
  let identity = Machine.Addr_map.identity_translation amap in
  let page_lines = if exact then cfg.page_size / line_size else 1 in
  let ppage =
    if identity || not exact then [||]
    else
      Array.init ((num_lines + page_lines - 1) / page_lines) (fun vp ->
          Machine.Addr_map.translate amap (vp * cfg.page_size) / cfg.page_size)
  in
  let run_end = Array.make (Array.length ppage) 0 in
  for vp = Array.length ppage - 1 downto 0 do
    run_end.(vp) <-
      (if vp + 1 < Array.length ppage && ppage.(vp + 1) = ppage.(vp) + 1 then
         run_end.(vp + 1)
       else vp + 1)
  done;
  let loc =
    if exact then
      Array.init period (fun p -> direct_loc amap regions (p * line_size))
    else [||]
  in
  let num_mcs = Machine.Addr_map.num_mcs amap in
  let num_regions = Region.count regions in
  {
    amap;
    regions;
    line_size;
    line_shift = (if pow2 then log2_of line_size else 0);
    line_mask = line_size - 1;
    num_lines;
    exact;
    period = (if exact then period else 0);
    periodic;
    loc;
    identity;
    flat = exact && periodic && identity;
    page_lines;
    ppage;
    run_end;
    num_mcs;
    num_regions;
    prefix =
      (if exact && period <= max_prefix_lines && (periodic || identity) then
         Some (build_prefix loc ~num_mcs ~num_regions)
       else None);
    fallbacks;
  }

let addr_map t = t.amap
let regions t = t.regions
let line_size t = t.line_size
let line_shift t = t.line_shift
let num_lines t = t.num_lines
let memoized t = t.exact
let lines_evaluated t = t.period
let identity_translation t = t.identity
let num_mcs t = t.num_mcs
let num_regions t = t.num_regions
let prefix_available t = t.prefix <> None

let fallback t =
  match t.fallbacks with Some c -> Obs.Metrics.incr c | None -> ()

(* Physical line of virtual line [l >= 0] of an exact memo. *)
let phys_line t l =
  if t.identity then l
  else if l < t.num_lines then
    (Array.unsafe_get t.ppage (l / t.page_lines) * t.page_lines)
    + (l mod t.page_lines)
  else begin
    fallback t;
    Machine.Addr_map.translate t.amap (l lsl t.line_shift) lsr t.line_shift
  end

(* Location of physical line [p >= 0] of an exact memo. *)
let loc_of_phys t p =
  if t.periodic then Array.unsafe_get t.loc (p mod t.period)
  else if p < t.period then Array.unsafe_get t.loc p
  else begin
    fallback t;
    direct_loc t.amap t.regions (p lsl t.line_shift)
  end

let loc_of t va =
  if t.flat && va >= 0 then
    Array.unsafe_get t.loc ((va lsr t.line_shift) mod t.period)
  else if t.exact && va >= 0 then loc_of_phys t (phys_line t (va lsr t.line_shift))
  else begin
    fallback t;
    direct_loc t.amap t.regions (Machine.Addr_map.translate t.amap va)
  end

let loc_of_line t l =
  if t.flat && l >= 0 then Array.unsafe_get t.loc (l mod t.period)
  else if t.exact && l >= 0 then loc_of_phys t (phys_line t l)
  else loc_of t (l * t.line_size)

let translate t va =
  if t.identity then va
  else if t.exact && va >= 0 then
    (phys_line t (va lsr t.line_shift) lsl t.line_shift) lor (va land t.line_mask)
  else begin
    fallback t;
    Machine.Addr_map.translate t.amap va
  end

let bank_node_of t va = node_of_loc (loc_of t va)
let region_of t va = region_of_loc (loc_of t va)
let mc_of t va = mc_of_loc (loc_of t va)

let check_range t ~lo ~hi =
  if lo < 0 || hi < lo || hi > t.num_lines then
    invalid_arg "Line_memo: line range outside the memoized footprint"

(* Adds [weight * (lines of class k in [lo, hi))] into [into.(k)]. The
   virtual range splits into physically contiguous runs (one run under
   identity translation); a run's per-class count is a prefix
   difference over the table, whose cycle quotients and remainders
   depend only on the run's ends, so they are computed once per run,
   not once per class — these run per resolved progression in the
   symbolic tier, where a division per class was the single largest
   cost. Prefix tables exist only where every run stays inside the
   table: a periodic table, or an identity-translated footprint. *)
let add_line_counts t ~pre ~tot ~lo ~hi ~weight into =
  let add_run a b =
    let cycles = (b / t.period) - (a / t.period) in
    let rb = b mod t.period and ra = a mod t.period in
    for k = 0 to Array.length tot - 1 do
      let pre = Array.unsafe_get pre k in
      let n =
        (cycles * Array.unsafe_get tot k)
        + Array.unsafe_get pre rb - Array.unsafe_get pre ra
      in
      into.(k) <- into.(k) + (weight * n)
    done
  in
  if t.identity then add_run lo hi
  else begin
    let l = ref lo in
    while !l < hi do
      let stop = min hi (t.run_end.(!l / t.page_lines) * t.page_lines) in
      let a = phys_line t !l in
      add_run a (a + stop - !l);
      l := stop
    done
  end

let add_mc_line_counts t ~lo ~hi ~weight into =
  check_range t ~lo ~hi;
  match t.prefix with
  | None -> invalid_arg "Line_memo.add_mc_line_counts: no prefix tables"
  | Some p ->
      add_line_counts t ~pre:p.mc_pre ~tot:p.mc_tot ~lo ~hi ~weight into

let add_region_line_counts t ~lo ~hi ~weight into =
  check_range t ~lo ~hi;
  match t.prefix with
  | None -> invalid_arg "Line_memo.add_region_line_counts: no prefix tables"
  | Some p ->
      add_line_counts t ~pre:p.region_pre ~tot:p.region_tot ~lo ~hi ~weight
        into
