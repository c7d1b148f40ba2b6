(** Memoization of the search's order-sensitive structural operators,
    and the per-kernel rows the grouping operators run on.

    The absorbing merge and kinship adjacency work on an index-based
    view of a partition (the group array plus a kernel→slot index, see
    {!Grouping.view}) and on per-kernel word-bitset rows: transitive
    reach and coreach (the path closure is the fixpoint of
    [M ∪ (reach M ∩ coreach M)]), which are the execution DAG's own
    cached closure and are not copied, and direct successors and
    predecessors (the group-level condensation walks) and kinship
    neighbours, built once per objective.  One merge costs O(kernels it touches × words), so
    nothing about it is memoized: a memo key (the whole partition plus
    the seed) costs more to encode than the merge, and on a 142-kernel
    SCALE-LES search such keys hit 0.55% of the time while the table
    nearly tripled the live heap.  For the same reason path closures
    and kinship neighbour sets are recomputed from the rows rather than
    looked up.

    Two operators stay memoized, under exact-order keys because their
    results depend on argument order: the condensation SCCs of a group
    array and {!Grouping.local_refine} (the per-generation champion
    rarely changes between improvements, so repeat refinements are
    hits).

    Sharing discipline (data-oriented, replacing the former striped
    mutexes): each memo is a read-only {e base} table shared by every
    domain plus one private single-writer table per domain that has
    probed it.  Probes take no lock at all — the base is mutated only at
    quiescent merge points ({!merge_memos}, called while all workers are
    parked at the pool's generation barrier, whose mutex handshake
    publishes the writes), and a domain's private table is touched only
    by its owner.  Keys are flat int arrays encoded into a per-domain
    {!Kf_fusion.Plan.Sigbuf} arena and hashed with the fixed polynomial
    {!Kf_fusion.Plan.signature_hash} (immune to [OCAMLRUNPARAM=R]);
    probes compare against the arena prefix in place ({e borrowed} keys)
    and copy the key out only on a miss.  Values are immutable and pure
    functions of their keys, so a key computed concurrently by several
    domains merges into the base once and which domain's value survives
    is unobservable — memoization stays invisible to the search except
    in time. *)

(** The underlying unsynchronized open-addressing table (hash-once,
    stored-hash rejection, linear probing, no tombstones), exposed for
    single-owner uses such as the per-island offspring dedup set.  Not
    thread-safe. *)
module Sig_tbl : sig
  type 'a t

  val create : ?capacity:int -> unit -> 'a t
  (** [capacity] is rounded up to a power of two (default 512). *)

  val count : 'a t -> int
  val clear : 'a t -> unit

  val find_pre : 'a t -> buf:int array -> len:int -> hash:int -> 'a option
  (** Probe with the borrowed key [buf.(0 .. len-1)]; [hash] must be
      {!Kf_fusion.Plan.signature_hash} of that prefix (e.g.
      {!Kf_fusion.Plan.Sigbuf.hash}). *)

  val mem_pre : 'a t -> buf:int array -> len:int -> hash:int -> bool

  val add : 'a t -> int array -> hash:int -> 'a -> unit
  (** Insert an {e owned} key (replaces the value if the key exists). *)

  val iter : (int array -> hash:int -> 'a -> unit) -> 'a t -> unit
end

type 'a table
(** A memo table from int-array signatures to ['a] with the base +
    per-domain-locals sharing discipline. *)

val table : string -> 'a table
(** [table name] creates an empty memo table; [name] labels its
    process-wide metrics counters ([struct_memo.<name>.hits] /
    [.misses], flushed at merge points rather than per probe). *)

val find_exact : 'a table -> int list list -> (unit -> 'a) -> 'a
(** Probe keyed by the groups in the given order ([-1]-separated) — for
    order-sensitive operators. *)

val find_exact_with : 'a table -> int list list -> int list -> (unit -> 'a) -> 'a
(** Like {!find_exact} with trailing scalar arguments appended to the
    key after a [-2] separator. *)

val merge_table : 'a table -> unit
(** Fold every domain's private entries into the shared base
    (insert-if-absent) and clear the private tables.  Must only be
    called at a quiescent point — no concurrent probes. *)

val table_stats : 'a table -> int * int
(** [(hits, misses)] accumulated over all domains, live. *)

type rows = {
  reach : Kf_util.Wordset.t array;
      (** descendants of each kernel, itself included: the DAG's own
          {!Kf_graph.Dag.reach_rows}, not a copy *)
  coreach : Kf_util.Wordset.t array;
      (** ancestors of each kernel, itself included ({!Kf_graph.Dag.coreach_rows}) *)
  succ : Kf_util.Wordset.t array;  (** direct successors in the execution DAG *)
  pred : Kf_util.Wordset.t array;  (** direct predecessors *)
  kin : Kf_util.Wordset.t array;  (** kinship neighbours ({!Kf_ir.Metadata.kin_neighbors}) *)
}
(** Per-kernel word-bitset rows over the kernel universe, read-only
    after construction and shared by every domain. *)

type memos = {
  sccs : int list list table;
      (** [Grouping.condensation_sccs] keyed by the group array *)
  refine : int list list table;
      (** [Grouping.local_refine] keyed by the exact-order input plus the
          pass bound *)
  rows : rows;
}
(** The bundle every objective owns. *)

val create_memos : Kf_graph.Dag.t -> Kf_ir.Metadata.t -> memos
(** Empty memos and the rows of the given execution DAG and metadata. *)

val merge_memos : memos -> unit
(** {!merge_table} over every memo.  Call at generation barriers. *)

val memo_stats : memos -> (string * (int * int)) list
(** [(name, (hits, misses))] per table, in a fixed order. *)
