module Plan = Kf_fusion.Plan
module Wordset = Kf_util.Wordset
module Dag = Kf_graph.Dag
module Sigbuf = Plan.Sigbuf

(* Open-addressing table specialized for int-array signature keys.  The
   generic [Hashtbl.Make] costs two hash computations per probe (shard
   selection and bucket lookup) plus a pointer chase per bucket entry;
   this table hashes once, rejects mismatches on the stored hash before
   touching key contents, and probes linearly.  Entries are never
   removed individually, so no tombstones.

   The table itself is single-writer and unsynchronized: concurrency is
   the caller's problem.  The memo [table] below layers the sharing
   discipline on top — a read-only [base] table shared by all domains
   plus one private table per domain, merged into the base at
   generation barriers.  Probes take no lock at all, which is the point:
   memo probes are the dominant per-call cost of the objective's
   structural operators, and the striped-mutex version of
   this module was a scaling bottleneck at domains > 1.

   Probes use a *borrowed* key: the caller encodes the signature into a
   reusable {!Plan.Sigbuf} arena and the probe compares against the
   buffer prefix in place.  An owned copy is extracted only on a miss,
   when the key must outlive the probe. *)
module Sig_tbl = struct
  (* Physical sentinel for an empty slot; no real key is ever this
     array, and slots are tested with [==]. *)
  let no_key : int array = [| min_int |]

  type 'a t = {
    mutable keys : int array array;
    mutable hashes : int array;
    mutable vals : 'a option array;
    mutable mask : int;  (* capacity - 1, capacity a power of two *)
    mutable count : int;
  }

  let create ?(capacity = 512) () =
    let cap = ref 8 in
    while !cap < capacity do
      cap := !cap * 2
    done;
    {
      keys = Array.make !cap no_key;
      hashes = Array.make !cap 0;
      vals = Array.make !cap None;
      mask = !cap - 1;
      count = 0;
    }

  let count t = t.count

  let clear t =
    Array.fill t.keys 0 (Array.length t.keys) no_key;
    Array.fill t.vals 0 (Array.length t.vals) None;
    t.count <- 0

  (* Does the stored key equal the first [len] ints of [buf]? *)
  let key_equal_pre (key : int array) (buf : int array) len =
    Array.length key = len
    &&
    let rec go i =
      i >= len || (Array.unsafe_get key i = Array.unsafe_get buf i && go (i + 1))
    in
    go 0

  (* Slot holding the borrowed key, or the empty slot where it belongs. *)
  let slot_pre t buf len h =
    let rec go i =
      let idx = (h + i) land t.mask in
      let k = Array.unsafe_get t.keys idx in
      if k == no_key then idx
      else if Array.unsafe_get t.hashes idx = h && key_equal_pre k buf len then idx
      else go (i + 1)
    in
    go 0

  let find_pre t ~buf ~len ~hash =
    let idx = slot_pre t buf len hash in
    if t.keys.(idx) == no_key then None else t.vals.(idx)

  let mem_pre t ~buf ~len ~hash =
    let idx = slot_pre t buf len hash in
    t.keys.(idx) != no_key

  let grow t =
    let old_keys = t.keys and old_hashes = t.hashes and old_vals = t.vals in
    let cap = 2 * (t.mask + 1) in
    t.keys <- Array.make cap no_key;
    t.hashes <- Array.make cap 0;
    t.vals <- Array.make cap None;
    t.mask <- cap - 1;
    Array.iteri
      (fun i k ->
        if k != no_key then begin
          let idx = slot_pre t k (Array.length k) old_hashes.(i) in
          t.keys.(idx) <- k;
          t.hashes.(idx) <- old_hashes.(i);
          t.vals.(idx) <- old_vals.(i)
        end)
      old_keys

  (* Insert an owned key (or replace the value of an equal existing
     key — structural memo values for equal keys are equal, so replace
     is as good as keep). *)
  let add t key ~hash v =
    let idx = slot_pre t key (Array.length key) hash in
    if t.keys.(idx) == no_key then begin
      t.keys.(idx) <- key;
      t.hashes.(idx) <- hash;
      t.vals.(idx) <- Some v;
      t.count <- t.count + 1;
      (* Keep load factor under 1/2 so probe chains stay short. *)
      if 2 * t.count > t.mask then grow t
    end
    else t.vals.(idx) <- Some v

  let iter f t =
    Array.iteri
      (fun i k ->
        if k != no_key then
          match t.vals.(i) with
          | Some v -> f k ~hash:t.hashes.(i) v
          | None -> assert false)
      t.keys
end

(* A memo table: one read-only [base] shared across domains plus one
   private single-writer table per domain that has ever probed it.
   Probes are lock-free — the base is written only at quiescent merge
   points (all workers parked at the pool barrier, whose mutex handshake
   publishes the writes), and each local is touched only by its owning
   domain.  The registry of locals is a cons-list keyed by domain id:
   readers walk an immutable snapshot (their own entry is always visible
   because they appended it), writers cons under [reg_lock] — a
   once-per-domain cost.

   Merging a local into the base inserts only keys the base does not
   already have, so a key computed concurrently by several domains lands
   once.  Values are pure functions of their keys, so which domain's
   copy survives is unobservable. *)

type 'a local = {
  l_tbl : 'a Sig_tbl.t;
  l_sb : Sigbuf.t;
  mutable l_hits : int;
  mutable l_misses : int;
  mutable l_pub_hits : int;  (* already flushed to the metrics registry *)
  mutable l_pub_misses : int;
}

type 'a table = {
  base : 'a Sig_tbl.t;
  mutable locals : (int * 'a local) list;
  reg_lock : Mutex.t;
  m_hits : Kf_obs.Metrics.counter;
  m_misses : Kf_obs.Metrics.counter;
}

let table name =
  {
    base = Sig_tbl.create ();
    locals = [];
    reg_lock = Mutex.create ();
    m_hits = Kf_obs.Metrics.counter (Printf.sprintf "struct_memo.%s.hits" name);
    m_misses = Kf_obs.Metrics.counter (Printf.sprintf "struct_memo.%s.misses" name);
  }

let local_of t =
  let did = (Domain.self () :> int) in
  let rec find = function
    | [] -> None
    | (d, (l : _ local)) :: tl -> if d = did then Some l else find tl
  in
  match find t.locals with
  | Some l -> l
  | None ->
      let l =
        {
          l_tbl = Sig_tbl.create ();
          l_sb = Sigbuf.create ();
          l_hits = 0;
          l_misses = 0;
          l_pub_hits = 0;
          l_pub_misses = 0;
        }
      in
      Mutex.lock t.reg_lock;
      t.locals <- (did, l) :: t.locals;
      Mutex.unlock t.reg_lock;
      l

(* The caller has encoded the key into [l.l_sb].  Probe base then local;
   on a miss, extract the owned key *before* running [compute] — the
   computation may probe other memos through the same domain's sigbufs,
   and for self-recursive operators even this one. *)
let probe t (l : _ local) compute =
  let buf = Sigbuf.unsafe_buf l.l_sb
  and len = Sigbuf.length l.l_sb
  and hash = Sigbuf.hash l.l_sb in
  match Sig_tbl.find_pre t.base ~buf ~len ~hash with
  | Some v ->
      l.l_hits <- l.l_hits + 1;
      v
  | None -> (
      match Sig_tbl.find_pre l.l_tbl ~buf ~len ~hash with
      | Some v ->
          l.l_hits <- l.l_hits + 1;
          v
      | None ->
          l.l_misses <- l.l_misses + 1;
          let key = Sigbuf.extract l.l_sb in
          let v = compute () in
          Sig_tbl.add l.l_tbl key ~hash v;
          v)

let find_exact t groups compute =
  let l = local_of t in
  Sigbuf.encode_groups_exact l.l_sb groups;
  probe t l compute

let find_exact_with t groups extra compute =
  let l = local_of t in
  Sigbuf.encode_groups_exact l.l_sb groups;
  Sigbuf.append_extra l.l_sb extra;
  probe t l compute

let merge_table t =
  List.iter
    (fun (_, (l : _ local)) ->
      Sig_tbl.iter
        (fun key ~hash v ->
          if not (Sig_tbl.mem_pre t.base ~buf:key ~len:(Array.length key) ~hash)
          then Sig_tbl.add t.base key ~hash v)
        l.l_tbl;
      Sig_tbl.clear l.l_tbl;
      (* Flush probe counters to the (atomic) metrics registry here, at
         the barrier, instead of contending on it per probe. *)
      Kf_obs.Metrics.incr ~by:(l.l_hits - l.l_pub_hits) t.m_hits;
      Kf_obs.Metrics.incr ~by:(l.l_misses - l.l_pub_misses) t.m_misses;
      l.l_pub_hits <- l.l_hits;
      l.l_pub_misses <- l.l_misses)
    t.locals

let table_stats t =
  List.fold_left
    (fun (h, m) (_, (l : _ local)) -> (h + l.l_hits, m + l.l_misses))
    (0, 0) t.locals

type rows = {
  reach : Wordset.t array;
  coreach : Wordset.t array;
  succ : Wordset.t array;
  pred : Wordset.t array;
  kin : Wordset.t array;
}

type memos = { sccs : int list list table; refine : int list list table; rows : rows }

let create_memos dag meta =
  let n = Dag.num_nodes dag in
  let row f = Array.init n (fun k -> Wordset.of_list n (f k)) in
  {
    sccs = table "sccs";
    refine = table "refine";
    rows =
      {
        reach = Dag.reach_rows dag;
        coreach = Dag.coreach_rows dag;
        succ = row (Dag.succs dag);
        pred = row (Dag.preds dag);
        kin = row (Kf_ir.Metadata.kin_neighbors meta);
      };
  }

let merge_memos m =
  merge_table m.sccs;
  merge_table m.refine

let memo_stats m = [ ("sccs", table_stats m.sccs); ("refine", table_stats m.refine) ]
