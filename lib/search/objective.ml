module Inputs = Kf_model.Inputs
module Feature_arena = Kf_model.Feature_arena
module Plan = Kf_fusion.Plan
module Metadata = Kf_ir.Metadata
module Device = Kf_gpu.Device
module Exec_order = Kf_graph.Exec_order
module Sig_tbl = Struct_memo.Sig_tbl
module Sigbuf = Plan.Sigbuf

type model = Proposed | Roofline | Simple | Mwp

type verdict = { feasible : bool; cost : float; orig_sum : float }

type fault_stats = {
  mutable injected : int;
  mutable trapped : int;
  mutable corrupted : int;
  mutable retries : int;
  mutable recovered : int;
  mutable quarantined : int;
}

let zero_faults () =
  { injected = 0; trapped = 0; corrupted = 0; retries = 0; recovered = 0; quarantined = 0 }

let copy_faults f =
  {
    injected = f.injected;
    trapped = f.trapped;
    corrupted = f.corrupted;
    retries = f.retries;
    recovered = f.recovered;
    quarantined = f.quarantined;
  }

type guard = (int list -> verdict) -> int list -> verdict

type cache_stats = { hits : int; misses : int; evictions : int; size : int }

let zero_cache_stats = { hits = 0; misses = 0; evictions = 0; size = 0 }

let add_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions;
    size = a.size + b.size;
  }

(* ---- plan-level cache --------------------------------------------------- *)

(* One whole-plan evaluation: the canonical-order total and each
   multi-member group's cost.  Offspring diff their groups against the
   parent's [pe_costs] table, so unchanged groups cost one hashtable find
   instead of a shared-cache probe. *)
type plan_eval = {
  pe_total : float;
  pe_costs : (int list, float) Hashtbl.t;  (* canonical group -> cost; multi-member only *)
}

let plan_eval_total pe = pe.pe_total

(* ---- caches: shared base + per-domain locals ----------------------------- *)

(* A shared base table (read-only between merges) with optional FIFO
   capacity enforcement at merge time.  [blog] mirrors the base's keys
   in insertion order whenever a capacity is configured, so the oldest
   entries can be dropped by rebuilding — entries are never removed from
   a [Sig_tbl] in place. *)
type 'v bounded = {
  mutable btbl : 'v Sig_tbl.t;
  mutable blog : int array array;
  mutable blog_len : int;
  bcap : int option;
  mutable bevictions : int;
}

let bounded_create capacity = {
  btbl = Sig_tbl.create ();
  blog = [||];
  blog_len = 0;
  bcap = capacity;
  bevictions = 0;
}

(* Insert a key known to be absent from the base. *)
let bounded_add b key hash v =
  Sig_tbl.add b.btbl key ~hash v;
  match b.bcap with
  | None -> ()
  | Some _ ->
      if b.blog_len = Array.length b.blog then begin
        let blog = Array.make (max 16 (2 * b.blog_len)) [||] in
        Array.blit b.blog 0 blog 0 b.blog_len;
        b.blog <- blog
      end;
      b.blog.(b.blog_len) <- key;
      b.blog_len <- b.blog_len + 1

(* FIFO eviction down to the configured capacity: rebuild keeping the
   newest [cap] insertions.  Re-evaluating an evicted group is pure, so
   eviction costs recomputation, never correctness. *)
let bounded_enforce b m_evictions =
  match b.bcap with
  | None -> ()
  | Some cap ->
      let n = Sig_tbl.count b.btbl in
      if n > cap then begin
        let drop = n - cap in
        let tbl = Sig_tbl.create ~capacity:(2 * cap) () in
        for i = drop to b.blog_len - 1 do
          let key = b.blog.(i) in
          let hash = Plan.signature_hash key in
          match Sig_tbl.find_pre b.btbl ~buf:key ~len:(Array.length key) ~hash with
          | Some v -> Sig_tbl.add tbl key ~hash v
          | None -> assert false
        done;
        b.btbl <- tbl;
        b.blog <- Array.sub b.blog drop (b.blog_len - drop);
        b.blog_len <- b.blog_len - drop;
        b.bevictions <- b.bevictions + drop;
        Kf_obs.Metrics.incr ~by:drop m_evictions
      end

(* Per-domain evaluation context: private group-verdict and plan tables,
   the signature-encoding arena, and probe counters.  Touched only by
   its owning domain, so none of this needs a lock. *)
(* A candidate plan offered to the cross-device Pareto front: its
   canonical signature (the dedup key among equal-cost plans), its
   canonical groups (for reporting) and its per-device total cost. *)
type offer = { of_sig : int array; of_plan : int list list; of_costs : float array }

type pareto_entry = { pf_plan : int list list; pf_costs : float array }

(* Multi-device portfolio state.  [rows] memoizes full per-device cost
   rows keyed by group signature (shared base merged like the verdict
   cache; kept unbounded so the exactly-once [rows_merged] accounting
   stays exact); [front] is the global non-dominated set, updated only
   at merge points. *)
type portfolio_state = {
  pa : Feature_arena.t;
  rows : float array bounded;
  mutable front : offer list;
  mutable rows_merged : int;  (* distinct group rows, exactly-once *)
}

type eval_local = {
  el_groups : verdict Sig_tbl.t;
  el_plans : plan_eval Sig_tbl.t;
  el_sb : Sigbuf.t;
  el_rows : float array Sig_tbl.t;  (* portfolio rows not yet merged *)
  mutable el_offers : offer list;  (* plan offers not yet merged *)
  mutable el_ghits : int;
  mutable el_gmisses : int;
  mutable el_phits : int;
  mutable el_pmisses : int;
  mutable el_evals : int;  (* evaluations run since the last merge *)
  mutable el_pub_ghits : int;  (* watermarks already flushed to metrics *)
  mutable el_pub_gmisses : int;
  mutable el_pub_phits : int;
  mutable el_pub_pmisses : int;
}

type t = {
  inputs : Inputs.t;
  model : model;
  arena : Feature_arena.t;  (* allocation-free evaluation leaf *)
  port : portfolio_state option;  (* multi-device portfolio, shares [arena] *)
  gcache : verdict bounded;  (* shared group-verdict base *)
  plans : plan_eval bounded;  (* shared plan-level base *)
  mutable locals : (int * eval_local) list;  (* keyed by domain id *)
  reg_lock : Mutex.t;  (* guards [locals] registration *)
  memos : Struct_memo.memos;  (* structural-operator memos *)
  stats_lock : Mutex.t;  (* guards the mutable counters below *)
  mutable evaluations : int;  (* merged + seeded exactly-once count *)
  mutable eval_time_s : float;
  mutable alloc_words : float;  (* minor words allocated by timed evaluations *)
  mutable timed_evals : int;  (* evaluations the metrics branch sampled *)
  mutable base_group : cache_stats;  (* resume seed for group-cache stats *)
  mutable base_plan : cache_stats;  (* resume seed for plan-cache stats *)
  time_counter : Kf_obs.Metrics.counter;
  guard : guard;
  fault_record : fault_stats;
}

(* Process-wide telemetry counters; no-ops unless Kf_obs.Metrics is
   enabled.  They are flushed at merge points instead of per probe, so
   the lock-free hot path never contends on the registry's atomics. *)
let m_evals = Kf_obs.Metrics.counter "objective.evaluations"
let m_group_hits = Kf_obs.Metrics.counter "objective.group_cache_hits"
let m_group_misses = Kf_obs.Metrics.counter "objective.group_cache_misses"
let m_group_evictions = Kf_obs.Metrics.counter "objective.group_cache_evictions"
let m_plan_hits = Kf_obs.Metrics.counter "objective.plan_cache_hits"
let m_plan_misses = Kf_obs.Metrics.counter "objective.plan_cache_misses"
let m_plan_evictions = Kf_obs.Metrics.counter "objective.plan_cache_evictions"
let g_alloc_per_eval = Kf_obs.Metrics.gauge "objective.alloc_per_eval"

let model_name = function
  | Proposed -> "proposed"
  | Roofline -> "roofline"
  | Simple -> "simple"
  | Mwp -> "mwp"

let create ?(model = Proposed) ?(guard = fun eval group -> eval group)
    ?(faults = zero_faults ()) ?cache_capacity ?plan_cache_capacity ?(portfolio = [])
    inputs =
  (match cache_capacity with
  | Some c when c < 1 -> invalid_arg "Objective.create: cache_capacity must be positive"
  | _ -> ());
  (match plan_cache_capacity with
  | Some c when c < 1 ->
      invalid_arg "Objective.create: plan_cache_capacity must be positive"
  | _ -> ());
  let arena = Feature_arena.create inputs ~extra:portfolio in
  {
    inputs;
    model;
    arena;
    port =
      (if portfolio = [] then None
       else Some { pa = arena; rows = bounded_create None; front = []; rows_merged = 0 });
    gcache = bounded_create cache_capacity;
    plans = bounded_create plan_cache_capacity;
    locals = [];
    reg_lock = Mutex.create ();
    memos = Struct_memo.create_memos (Exec_order.dag inputs.Inputs.exec) inputs.Inputs.meta;
    stats_lock = Mutex.create ();
    evaluations = 0;
    eval_time_s = 0.;
    alloc_words = 0.;
    timed_evals = 0;
    base_group = zero_cache_stats;
    base_plan = zero_cache_stats;
    time_counter = Kf_obs.Metrics.counter ("objective.eval_us." ^ model_name model);
    guard;
    fault_record = faults;
  }

let inputs t = t.inputs
let model t = t.model
let memos t = t.memos
let struct_memos t = Some t.memos

(* The per-domain evaluation context.  Reading [t.locals] without the
   lock is safe: the list is immutable (registration conses a new head
   under [reg_lock]), and a domain's own entry is always visible to it
   because the domain appended it.  Entries registered concurrently by
   other domains may be missing from a stale snapshot, which only means
   this walk doesn't find them — never a torn read. *)
let local_of t =
  let did = (Domain.self () :> int) in
  let rec find = function
    | [] -> None
    | (d, l) :: tl -> if d = did then Some l else find tl
  in
  match find t.locals with
  | Some l -> l
  | None ->
      let l =
        {
          el_groups = Sig_tbl.create ();
          el_plans = Sig_tbl.create ();
          el_sb = Sigbuf.create ();
          el_rows = Sig_tbl.create ();
          el_offers = [];
          el_ghits = 0;
          el_gmisses = 0;
          el_phits = 0;
          el_pmisses = 0;
          el_evals = 0;
          el_pub_ghits = 0;
          el_pub_gmisses = 0;
          el_pub_phits = 0;
          el_pub_pmisses = 0;
        }
      in
      Mutex.lock t.reg_lock;
      t.locals <- (did, l) :: t.locals;
      Mutex.unlock t.reg_lock;
      l

let arena_cost t scr ~dev =
  match t.model with
  | Proposed -> Kf_model.Projection.arena_runtime scr ~dev
  | Roofline -> Kf_model.Roofline.arena_runtime scr ~dev
  | Simple -> Kf_model.Simple_model.arena_runtime scr ~dev
  | Mwp -> Kf_model.Mwp.arena_runtime scr ~dev

(* The evaluation leaf: active-constraint pruning over the arena's
   precomputed features — cheap structural checks first, resource checks
   only on structurally valid groups, the model only on fully feasible
   ones.  Same check order, same booleans and same float folds as
   building each candidate with [Fused.build] (the test suite keeps that
   leaf as its differential oracle).  The only allocation left is the
   verdict record itself. *)
let evaluate t group =
  match group with
  | [ k ] ->
      let cost = t.inputs.Inputs.measured_runtime.(k) in
      { feasible = true; cost; orig_sum = cost }
  | _ ->
      let orig_sum = Inputs.original_sum t.inputs group in
      let scr = Feature_arena.load t.arena group in
      if not (Feature_arena.connected scr) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if Feature_arena.spans_sync scr then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if not (Feature_arena.convex scr) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else begin
        Feature_arena.analyze scr;
        Feature_arena.fuse scr ~dev:0;
        let d = t.inputs.Inputs.device in
        if
          Feature_arena.vertical_hazard scr
          || Feature_arena.smem_bytes_per_block scr > d.Device.smem_per_smx
          || Feature_arena.registers_per_thread scr >= d.Device.max_registers_per_thread
        then { feasible = false; cost = Float.infinity; orig_sum }
        else { feasible = true; cost = arena_cost t scr ~dev:0; orig_sum }
      end

(* Full per-device cost row of a multi-member group: structural checks
   and analysis once, then one [fuse] + model call per device.  Device 0
   reproduces [evaluate]'s cost bit-for-bit (same code runs), so a
   row is a superset of the primary verdict. *)
let compute_row st t group =
  let a = st.pa in
  let ndev = Feature_arena.num_devices a in
  let row = Array.make ndev Float.infinity in
  let scr = Feature_arena.load a group in
  if
    Feature_arena.connected scr
    && (not (Feature_arena.spans_sync scr))
    && Feature_arena.convex scr
  then begin
    Feature_arena.analyze scr;
    if not (Feature_arena.vertical_hazard scr) then
      for dev = 0 to ndev - 1 do
        Feature_arena.fuse scr ~dev;
        let d = Feature_arena.device a dev in
        if
          Feature_arena.smem_bytes_per_block scr <= d.Device.smem_per_smx
          && Feature_arena.registers_per_thread scr < d.Device.max_registers_per_thread
        then row.(dev) <- arena_cost t scr ~dev
      done
  end;
  row

(* Evaluate a missed key outside any lock (evaluation is pure).  The guard
   sits between the cache and the raw evaluation, so any fault handling it
   performs (retry, quarantine) is memoized like a normal verdict.  The
   timing branch only runs with metrics enabled, keeping the disabled-mode
   hot path clock-free. *)
let run_evaluation t group =
  if Kf_obs.Metrics.enabled () then begin
    let t0 = Unix.gettimeofday () in
    let w0 = Gc.minor_words () in
    let v = t.guard (evaluate t) group in
    (* [minor_words] reads the domain-local allocation pointer, so the
       delta is this evaluation's own minor allocation — the hot-path
       health gauge of the arena leaf, which allocates a handful of
       words per candidate where a [Fused.build] per candidate allocates
       thousands. *)
    let dw = Float.max 0. (Gc.minor_words () -. w0) in
    let dt = Float.max 0. (Unix.gettimeofday () -. t0) in
    Mutex.lock t.stats_lock;
    t.eval_time_s <- t.eval_time_s +. dt;
    t.alloc_words <- t.alloc_words +. dw;
    t.timed_evals <- t.timed_evals + 1;
    let per_eval = t.alloc_words /. float_of_int t.timed_evals in
    Mutex.unlock t.stats_lock;
    Kf_obs.Metrics.add t.time_counter (int_of_float (dt *. 1e6));
    Kf_obs.Metrics.set g_alloc_per_eval per_eval;
    v
  end
  else t.guard (evaluate t) group

(* Probe of a multi-member group already in canonical member order:
   lock-free against the shared base (read-only between merges), then
   against this domain's private table.  On a miss the
   verdict lands in the private table; {!merge_locals} folds it into the
   base at the next generation barrier.  A key evaluated concurrently by
   several domains is counted once at merge time, without any
   cross-domain traffic. *)
let lookup_sig t sorted_group =
  let l = local_of t in
  let sb = l.el_sb in
  Sigbuf.encode_group sb sorted_group;
  let buf = Sigbuf.unsafe_buf sb
  and len = Sigbuf.length sb
  and hash = Sigbuf.hash sb in
  match Sig_tbl.find_pre t.gcache.btbl ~buf ~len ~hash with
  | Some v ->
      l.el_ghits <- l.el_ghits + 1;
      v
  | None -> (
      match Sig_tbl.find_pre l.el_groups ~buf ~len ~hash with
      | Some v ->
          l.el_ghits <- l.el_ghits + 1;
          v
      | None ->
          l.el_gmisses <- l.el_gmisses + 1;
          (* Copy the key out before evaluating: the guard or model may
             route back through this domain's arena. *)
          let key = Sigbuf.extract sb in
          l.el_evals <- l.el_evals + 1;
          let v = run_evaluation t sorted_group in
          Sig_tbl.add l.el_groups key ~hash v;
          (* Portfolio: fill the per-device cost row alongside the
             primary verdict.  Rows bypass the guard (they are pure model
             outputs), and their exactly-once accounting mirrors the
             verdict merge.  A verdict can re-miss after gcache eviction
             while its unbounded row survives — hence the membership
             check. *)
          (match t.port with
          | Some st ->
              let len = Array.length key in
              if
                (not (Sig_tbl.mem_pre st.rows.btbl ~buf:key ~len ~hash))
                && not (Sig_tbl.mem_pre l.el_rows ~buf:key ~len ~hash)
              then Sig_tbl.add l.el_rows key ~hash (compute_row st t sorted_group)
          | None -> ());
          v)

let lookup t group =
  match group with
  | [ k ] ->
      (* Singletons carry their measured runtime and are feasible by
         definition: answered from the inputs array without touching the
         cache, and never counted as evaluations. *)
      let cost = t.inputs.Inputs.measured_runtime.(k) in
      { feasible = true; cost; orig_sum = cost }
  | _ ->
      lookup_sig t
        (if Plan.is_sorted_strict group then group else List.sort Int.compare group)

(* Per-device cost row of a canonical multi-member group, through the
   two-level row cache (shared base, then this domain's local). *)
let row_of_group st t l g =
  let sb = l.el_sb in
  Sigbuf.encode_group sb g;
  let buf = Sigbuf.unsafe_buf sb and len = Sigbuf.length sb and hash = Sigbuf.hash sb in
  match Sig_tbl.find_pre st.rows.btbl ~buf ~len ~hash with
  | Some r -> r
  | None -> (
      match Sig_tbl.find_pre l.el_rows ~buf ~len ~hash with
      | Some r -> r
      | None ->
          let key = Sigbuf.extract sb in
          let r = compute_row st t g in
          Sig_tbl.add l.el_rows key ~hash r;
          r)

(* Offer a freshly evaluated plan to the Pareto front: per-device totals
   summed in canonical group order (deterministic), buffered locally and
   folded into the global front at the next merge. *)
let offer_plan st t l ~psig ~canon =
  let ndev = Feature_arena.num_devices st.pa in
  let costs = Array.make ndev 0. in
  List.iter
    (fun g ->
      match g with
      | [ k ] ->
          for dev = 0 to ndev - 1 do
            costs.(dev) <- costs.(dev) +. (Feature_arena.measured_runtime st.pa ~dev).(k)
          done
      | _ ->
          let r = row_of_group st t l g in
          for dev = 0 to ndev - 1 do
            costs.(dev) <- costs.(dev) +. r.(dev)
          done)
    canon;
  l.el_offers <- { of_sig = psig; of_plan = canon; of_costs = costs } :: l.el_offers

let group_feasible t group = (lookup t group).feasible
let group_cost t group = (lookup t group).cost

let group_profitable t group =
  match group with
  | [ _ ] -> true
  | _ ->
      let v = lookup t group in
      v.feasible && v.cost < v.orig_sum

(* ---- horizontal packs ---------------------------------------------------- *)

module Horizontal = Kf_fusion.Horizontal

(* [pe_costs] key of a pack: single-plane packs key by their group (the
   vertical key, so vertical entries are shared), multi-plane packs by
   the planes flattened with a [-3] separator — the same disjoint
   keyspace split as the signature encodings. *)
let comp_key pack =
  match pack with
  | [ g ] -> g
  | planes -> List.concat (List.mapi (fun i g -> if i = 0 then g else -3 :: g) planes)

(* Resource pressure one plane contributes to its horizontal launch:
   original kernels bring their own registers (no SMEM), vertically fused
   planes bring the fused kernel's demand (the arena's accessors, equal
   to [Fused.build]'s).  Only called on feasible planes (the caller
   checks the plane verdicts first), so arena analysis cannot trip on a
   structurally broken group. *)
let plane_pressure t g =
  match g with
  | [ k ] ->
      let p = Metadata.program t.inputs.Inputs.meta in
      Horizontal.pressure
        ~regs:(Kf_ir.Program.kernel p k).Kf_ir.Kernel.registers_per_thread ~smem:0
  | g ->
      let scr = Feature_arena.load t.arena g in
      Feature_arena.analyze scr;
      Feature_arena.fuse scr ~dev:0;
      Horizontal.pressure
        ~regs:(Feature_arena.registers_per_thread scr)
        ~smem:(Feature_arena.smem_bytes_per_block scr)

(* Verdict of one multi-plane pack.  The planes are evaluated through the
   ordinary vertical path (cached, guarded, counted); the combination is
   pure arithmetic through {!Kf_fusion.Horizontal} — the same function
   the simulator uses, which is what keeps measured and projected
   horizontal runtimes in agreement.  [planes] must be canonical: the
   per-plane cost sum folds in canonical plane order, so permuted-but-
   equal packs produce bit-identical floats. *)
let evaluate_comp t planes =
  let i = t.inputs in
  let orig_sum = List.fold_left (fun acc g -> acc +. Inputs.original_sum i g) 0. planes in
  if not (Plan.planes_independent ~exec:i.Inputs.exec planes) then
    { feasible = false; cost = Float.infinity; orig_sum }
  else begin
    let verdicts = List.map (lookup t) planes in
    if List.exists (fun v -> not v.feasible) verdicts then
      { feasible = false; cost = Float.infinity; orig_sum }
    else begin
      let combined = Horizontal.combine_pressure (List.map (plane_pressure t) planes) in
      let grid = (Metadata.program i.Inputs.meta).Kf_ir.Program.grid in
      let cost =
        Horizontal.runtime i.Inputs.device
          ~threads_per_block:(Kf_ir.Grid.threads_per_block grid)
          ~blocks:(Kf_ir.Grid.blocks grid)
          ~costs:(List.map (fun v -> v.cost) verdicts)
          combined
      in
      { feasible = Float.is_finite cost; cost; orig_sum }
    end
  end

(* Pack probe: same two-level tables as the vertical groups (the
   [-3]-separated keys are disjoint from every group key), so pack
   verdicts inherit the merge machinery, the exactly-once
   evaluation accounting, and the domain-count determinism for free. *)
let lookup_comp_sig t planes =
  let l = local_of t in
  let sb = l.el_sb in
  Sigbuf.encode_cgroup sb planes;
  let buf = Sigbuf.unsafe_buf sb
  and len = Sigbuf.length sb
  and hash = Sigbuf.hash sb in
  match Sig_tbl.find_pre t.gcache.btbl ~buf ~len ~hash with
  | Some v ->
      l.el_ghits <- l.el_ghits + 1;
      v
  | None -> (
      match Sig_tbl.find_pre l.el_groups ~buf ~len ~hash with
      | Some v ->
          l.el_ghits <- l.el_ghits + 1;
          v
      | None ->
          l.el_gmisses <- l.el_gmisses + 1;
          (* Copy the key out before evaluating: the nested plane lookups
             below re-encode through this domain's arena. *)
          let key = Sigbuf.extract sb in
          l.el_evals <- l.el_evals + 1;
          let v = evaluate_comp t planes in
          Sig_tbl.add l.el_groups key ~hash v;
          v)

let lookup_comp t pack =
  match pack with
  | [ g ] -> lookup t g
  | planes ->
      lookup_comp_sig t (Plan.canonical_groups planes)

let comp_cost t pack = (lookup_comp t pack).cost
let comp_feasible t pack = (lookup_comp t pack).feasible

let comp_profitable t pack =
  match pack with
  | [ g ] -> group_profitable t g
  | _ ->
      let v = lookup_comp t pack in
      v.feasible && v.cost < v.orig_sum

(* ---- plan-level evaluation ---------------------------------------------- *)

(* Evaluate a whole plan through the two-level cache.  The canonical
   total is summed in canonical group order, so a permuted-but-equal
   plan hitting the plan cache returns a bit-identical total.

   The arena encodes the canonical plan signature without building the
   canonical group list, so a plan-cache hit — the steady state once the
   population converges — allocates nothing at all.

   [base] is the parent's evaluation: groups the genetic operator left
   untouched are found in [base.pe_costs] and skip the shared cache
   entirely.  With unbounded caches this changes no evaluation counts —
   every group in [base] was itself resolved through the shared cache
   when the parent was evaluated, so the set of cache misses is the same
   with delta evaluation on or off.  (Under a configured
   [cache_capacity], evicted groups are re-evaluated on the full path
   but not on the delta path, so counts may differ; totals never do.) *)
let eval_plan t ?base groups =
  let l = local_of t in
  let sb = l.el_sb in
  Sigbuf.encode_plan sb groups;
  let buf = Sigbuf.unsafe_buf sb
  and len = Sigbuf.length sb
  and hash = Sigbuf.hash sb in
  let cached =
    match Sig_tbl.find_pre t.plans.btbl ~buf ~len ~hash with
    | Some _ as pe -> pe
    | None -> Sig_tbl.find_pre l.el_plans ~buf ~len ~hash
  in
  match cached with
  | Some pe ->
      l.el_phits <- l.el_phits + 1;
      pe
  | None ->
      l.el_pmisses <- l.el_pmisses + 1;
      (* Materialize the key and the canonical group list before the
         per-group lookups below clobber the arena. *)
      let psig = Sigbuf.extract sb in
      let canon = Sigbuf.canonical sb in
      let costs = Hashtbl.create 16 in
      let total =
        List.fold_left
          (fun acc g ->
            match g with
            | [ k ] -> acc +. t.inputs.Inputs.measured_runtime.(k)
            | _ ->
                let c =
                  match base with
                  | Some b -> (
                      match Hashtbl.find_opt b.pe_costs g with
                      | Some c -> c
                      | None -> (lookup_sig t g).cost)
                  | None -> (lookup_sig t g).cost
                in
                Hashtbl.replace costs g c;
                acc +. c)
          0. canon
      in
      let pe = { pe_total = total; pe_costs = costs } in
      Sig_tbl.add l.el_plans psig ~hash pe;
      (match t.port with
      | Some st -> offer_plan st t l ~psig ~canon
      | None -> ());
      pe

let plan_cost t groups = (eval_plan t groups).pe_total

(* Whole-composition evaluation: [eval_plan] one level up.  An
   all-singleton composition encodes byte-identically to the underlying
   plan signature, so vertical individuals inside a horizontal search
   share plan-cache entries (and bit-identical totals) with the vertical
   search.  [base] diffing works across modes because single-plane packs
   key [pe_costs] by their group, exactly as [eval_plan] does. *)
let eval_cplan t ?base comps =
  let l = local_of t in
  let sb = l.el_sb in
  let canon = Sigbuf.encode_cplan sb comps in
  let buf = Sigbuf.unsafe_buf sb
  and len = Sigbuf.length sb
  and hash = Sigbuf.hash sb in
  let cached =
    match Sig_tbl.find_pre t.plans.btbl ~buf ~len ~hash with
    | Some _ as pe -> pe
    | None -> Sig_tbl.find_pre l.el_plans ~buf ~len ~hash
  in
  match cached with
  | Some pe ->
      l.el_phits <- l.el_phits + 1;
      pe
  | None ->
      l.el_pmisses <- l.el_pmisses + 1;
      let psig = Sigbuf.extract sb in
      let costs = Hashtbl.create 16 in
      let total =
        List.fold_left
          (fun acc pack ->
            match pack with
            | [ [ k ] ] -> acc +. t.inputs.Inputs.measured_runtime.(k)
            | [ g ] ->
                let c =
                  match base with
                  | Some b -> (
                      match Hashtbl.find_opt b.pe_costs g with
                      | Some c -> c
                      | None -> (lookup_sig t g).cost)
                  | None -> (lookup_sig t g).cost
                in
                Hashtbl.replace costs g c;
                acc +. c
            | planes ->
                let key = comp_key planes in
                let c =
                  match base with
                  | Some b -> (
                      match Hashtbl.find_opt b.pe_costs key with
                      | Some c -> c
                      | None -> (lookup_comp_sig t planes).cost)
                  | None -> (lookup_comp_sig t planes).cost
                in
                Hashtbl.replace costs key c;
                acc +. c)
          0. canon
      in
      let pe = { pe_total = total; pe_costs = costs } in
      Sig_tbl.add l.el_plans psig ~hash pe;
      pe

let cplan_cost t comps = (eval_cplan t comps).pe_total

let original_sum t group = Inputs.original_sum t.inputs group

(* ---- merge at generation barriers --------------------------------------- *)

(* Strict Pareto dominance over cost vectors: no worse everywhere,
   strictly better somewhere.  Infinities compare like any float, so an
   everywhere-infeasible plan is dominated by anything finite. *)
let dominates a b =
  let n = Array.length a in
  let le = ref true and lt = ref false in
  for i = 0 to n - 1 do
    if a.(i) > b.(i) then le := false else if a.(i) < b.(i) then lt := true
  done;
  !le && !lt

(* Fold one offer into the non-dominated set.  The result is independent
   of offer order: dominance is transitive, and equal cost vectors are
   deduplicated to the lexicographically smallest plan signature. *)
let front_offer st o =
  let shadowed e =
    dominates e.of_costs o.of_costs
    || (e.of_costs = o.of_costs && Stdlib.compare e.of_sig o.of_sig <= 0)
  in
  if not (List.exists shadowed st.front) then
    st.front <-
      o
      :: List.filter
           (fun e ->
             (not (dominates o.of_costs e.of_costs))
             && not (e.of_costs = o.of_costs && Stdlib.compare o.of_sig e.of_sig < 0))
           st.front

(* Fold every domain's private tables into the shared bases.  Must only
   run at a quiescent point: all workers parked at the pool's generation
   barrier (its mutex handshake publishes the workers' writes to the
   merging domain and the updated bases back to them), or a
   single-domain caller.

   Evaluation accounting: each private verdict whose key is not yet in
   the base counts as one evaluation.  A key evaluated by several
   domains in the same generation merges — and counts — once, so
   budgets and fault-rate denominators stay identical for any domain
   count.  (Locals hide duplicates within one domain between merges, so
   the per-local fresh-key count is the per-local evaluation count.) *)
let merge_locals t =
  let fresh = ref 0 in
  List.iter
    (fun (_, l) ->
      (match t.port with
      | Some st ->
          Sig_tbl.iter
            (fun key ~hash r ->
              if
                not
                  (Sig_tbl.mem_pre st.rows.btbl ~buf:key ~len:(Array.length key)
                     ~hash)
              then begin
                bounded_add st.rows key hash r;
                st.rows_merged <- st.rows_merged + 1
              end)
            l.el_rows;
          Sig_tbl.clear l.el_rows;
          List.iter (front_offer st) (List.rev l.el_offers);
          l.el_offers <- []
      | None -> ());
      Sig_tbl.iter
        (fun key ~hash v ->
          if
            not
              (Sig_tbl.mem_pre t.gcache.btbl ~buf:key ~len:(Array.length key)
                 ~hash)
          then begin
            bounded_add t.gcache key hash v;
            incr fresh
          end)
        l.el_groups;
      Sig_tbl.clear l.el_groups;
      l.el_evals <- 0;
      Sig_tbl.iter
        (fun key ~hash pe ->
          if
            not
              (Sig_tbl.mem_pre t.plans.btbl ~buf:key ~len:(Array.length key)
                 ~hash)
          then bounded_add t.plans key hash pe)
        l.el_plans;
      Sig_tbl.clear l.el_plans;
      (* Flush probe telemetry to the (atomic) metrics registry here
         rather than contending on it per probe. *)
      Kf_obs.Metrics.incr ~by:(l.el_ghits - l.el_pub_ghits) m_group_hits;
      Kf_obs.Metrics.incr ~by:(l.el_gmisses - l.el_pub_gmisses) m_group_misses;
      Kf_obs.Metrics.incr ~by:(l.el_phits - l.el_pub_phits) m_plan_hits;
      Kf_obs.Metrics.incr ~by:(l.el_pmisses - l.el_pub_pmisses) m_plan_misses;
      l.el_pub_ghits <- l.el_ghits;
      l.el_pub_gmisses <- l.el_gmisses;
      l.el_pub_phits <- l.el_phits;
      l.el_pub_pmisses <- l.el_pmisses)
    t.locals;
  bounded_enforce t.gcache m_group_evictions;
  bounded_enforce t.plans m_plan_evictions;
  if !fresh > 0 then begin
    Mutex.lock t.stats_lock;
    t.evaluations <- t.evaluations + !fresh;
    Mutex.unlock t.stats_lock;
    Kf_obs.Metrics.incr ~by:!fresh m_evals
  end;
  Struct_memo.merge_memos t.memos

(* ---- portfolio accessors (call at quiescent points, like merges) ------- *)

let portfolio_active t = t.port <> None

let portfolio_devices t =
  match t.port with
  | Some st -> Feature_arena.devices st.pa
  | None -> [| t.inputs.Inputs.device |]

let rows_evaluated t =
  merge_locals t;
  match t.port with Some st -> st.rows_merged | None -> 0

let group_row t group =
  match t.port with
  | None -> None
  | Some st -> (
      match group with
      | [ k ] ->
          Some
            (Array.init
               (Feature_arena.num_devices st.pa)
               (fun dev -> (Feature_arena.measured_runtime st.pa ~dev).(k)))
      | _ ->
          let sorted =
            if Plan.is_sorted_strict group then group else List.sort Int.compare group
          in
          Some (Array.copy (row_of_group st t (local_of t) sorted)))

let pareto_front t =
  match t.port with
  | None -> []
  | Some st ->
      merge_locals t;
      let entries =
        List.sort
          (fun a b ->
            let c = Stdlib.compare a.of_costs b.of_costs in
            if c <> 0 then c else Stdlib.compare a.of_sig b.of_sig)
          st.front
      in
      List.map (fun o -> { pf_plan = o.of_plan; pf_costs = Array.copy o.of_costs }) entries

let alloc_per_eval t =
  Mutex.lock t.stats_lock;
  let v =
    if t.timed_evals = 0 then 0. else t.alloc_words /. float_of_int t.timed_evals
  in
  Mutex.unlock t.stats_lock;
  v

(* Merged exactly-once count plus each domain's evaluations since its
   last merge.  Exact at merge points and for single-domain use (one
   local dedups its own traffic); between barriers with several domains
   the live part may transiently include cross-domain duplicates that
   the next merge collapses. *)
let evaluations t =
  Mutex.lock t.stats_lock;
  let n = t.evaluations in
  Mutex.unlock t.stats_lock;
  List.fold_left (fun acc (_, l) -> acc + l.el_evals) n t.locals

(* Resume support: a solver restoring a checkpoint seeds the counter with
   the evaluations already spent before the snapshot, so budgets and
   reported stats span the whole logical run, not just this process. *)
let add_evaluations t n =
  if n < 0 then invalid_arg "Objective.add_evaluations: negative count";
  Mutex.lock t.stats_lock;
  t.evaluations <- t.evaluations + n;
  Mutex.unlock t.stats_lock

let add_faults t (base : fault_stats) =
  Mutex.lock t.stats_lock;
  let f = t.fault_record in
  f.injected <- f.injected + base.injected;
  f.trapped <- f.trapped + base.trapped;
  f.corrupted <- f.corrupted + base.corrupted;
  f.retries <- f.retries + base.retries;
  f.recovered <- f.recovered + base.recovered;
  f.quarantined <- f.quarantined + base.quarantined;
  Mutex.unlock t.stats_lock

let add_cache_stats t ~group ~plan =
  Mutex.lock t.stats_lock;
  (* The size field of a seed is meaningless (the prior table is gone);
     only the flow counters accumulate. *)
  t.base_group <-
    add_stats t.base_group { group with size = 0 };
  t.base_plan <- add_stats t.base_plan { plan with size = 0 };
  Mutex.unlock t.stats_lock

let base_group_stats t =
  Mutex.lock t.stats_lock;
  let s = t.base_group in
  Mutex.unlock t.stats_lock;
  s

let base_plan_stats t =
  Mutex.lock t.stats_lock;
  let s = t.base_plan in
  Mutex.unlock t.stats_lock;
  s

(* Warm cross-request cache: the serve daemon exports one request's
   signature-keyed verdicts and seeds them into the next request's
   objective over the same (program, device, model), so identical
   subproblems hit warm across requests — and, with Snapshot.Cache
   persistence, across daemon restarts.  Export merges
   first so in-flight locals are included; both calls must happen at
   quiescent points (the daemon calls them between requests). *)
let export_group_verdicts t =
  merge_locals t;
  let acc = ref [] in
  Sig_tbl.iter (fun k ~hash:_ v -> acc := (k, v) :: !acc) t.gcache.btbl;
  !acc

let seed_group_verdicts t entries =
  List.iter
    (fun (k, v) ->
      let hash = Plan.signature_hash k in
      if not (Sig_tbl.mem_pre t.gcache.btbl ~buf:k ~len:(Array.length k) ~hash)
      then bounded_add t.gcache k hash v)
    entries;
  bounded_enforce t.gcache m_group_evictions

(* The "shards" are the shared base (index 0 —
   it holds the merged entries and the eviction counter but sees no
   probes of its own) followed by one entry per domain-local context
   (its private probe counters and any entries not yet merged).  Sizes
   and hit/miss flows both sum to the aggregate {!cache_stats}. *)
let shard_stats t =
  let base =
    {
      hits = 0;
      misses = 0;
      evictions = t.gcache.bevictions;
      size = Sig_tbl.count t.gcache.btbl;
    }
  in
  let locs =
    List.rev_map
      (fun (_, l) ->
        {
          hits = l.el_ghits;
          misses = l.el_gmisses;
          evictions = 0;
          size = Sig_tbl.count l.el_groups;
        })
      t.locals
  in
  Array.of_list (base :: locs)

let num_shards t = 1 + List.length t.locals

let cache_stats t =
  add_stats (Array.fold_left add_stats zero_cache_stats (shard_stats t)) (base_group_stats t)

let plan_cache_stats t =
  let live =
    List.fold_left
      (fun acc (_, l) ->
        add_stats acc
          {
            hits = l.el_phits;
            misses = l.el_pmisses;
            evictions = 0;
            size = Sig_tbl.count l.el_plans;
          })
      {
        hits = 0;
        misses = 0;
        evictions = t.plans.bevictions;
        size = Sig_tbl.count t.plans.btbl;
      }
      t.locals
  in
  add_stats live (base_plan_stats t)

let cache_hit_rate t =
  let s = cache_stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let eval_time_s t =
  Mutex.lock t.stats_lock;
  let v = t.eval_time_s in
  Mutex.unlock t.stats_lock;
  v

let faults t = t.fault_record

let fault_snapshot t =
  Mutex.lock t.stats_lock;
  let f = copy_faults t.fault_record in
  Mutex.unlock t.stats_lock;
  f

(* Per-candidate, not per-event: a transient failure that recovers on
   retry bumps [trapped] several times for one evaluation, so the event
   counts can exceed the attempt count.  A candidate counts as failed
   exactly when it ended quarantined, which happens at most once per
   distinct group — the rate stays in [0,1]. *)
let fault_rate t =
  let f = fault_snapshot t in
  let evals = evaluations t in
  if evals = 0 then 0. else float_of_int f.quarantined /. float_of_int evals

let pp_faults ppf f =
  Format.fprintf ppf
    "injected %d, trapped %d, corrupted %d, retries %d (recovered %d), quarantined %d"
    f.injected f.trapped f.corrupted f.retries f.recovered f.quarantined

let cache_size t = (cache_stats t).size
