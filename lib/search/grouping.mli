(** Grouping manipulation shared by all solvers: dependency-aware merging,
    random feasible plan construction, and local repair moves.

    The central operation is the {e absorbing merge}: uniting two groups
    and closing the result under the order-of-execution path constraint
    (paper Eq. 1.3) can pull in kernels that belong to third groups, which
    must then be absorbed whole — iterated to a fixpoint.  This is what
    makes the genetic operators "aware of groups" in the paper's sense:
    they move legal groups around instead of individual kernels.

    The operators run on an index-based {!view} of a partition and on
    per-kernel word-bitset rows precomputed once per objective (see
    {!Struct_memo}); the list functions below are thin wrappers over the
    same core. *)

type groups = int list list

(** {1 Index-based partitions} *)

type view
(** A partition as its group array in the caller's list order (group
    [i] sits in {e slot} [i]) plus a kernel→slot index.  Built in
    O(kernels) and reused across the candidate loops of an operator;
    immutable, and not tied to a domain. *)

val view : Objective.t -> groups -> view

val view_groups : view -> int list array
(** The groups by slot.  Do not mutate. *)

type merge = {
  members : int list;  (** the merged group, increasing *)
  absorbed : int list;  (** slots it swallowed, increasing (the two seeds included) *)
}

val merge_slots : Objective.t -> view -> int -> int -> merge option
(** [merge_slots obj v a b] is {!merge_pair} of the groups in slots [a]
    and [b], without building the remainder. *)

val remainder : view -> merge -> groups
(** The groups the merge left untouched, in slot order. *)

val apply : view -> merge -> groups
(** [members :: remainder] — the partition after keeping the merge. *)

val kin_adjacent_slots : Objective.t -> view -> int list -> int array
(** {!kin_adjacent_groups} as increasing slots. *)

(** {1 List operators} *)

val absorbing_merge : Objective.t -> groups -> int list -> (int list * groups) option
(** [absorbing_merge obj groups seed] merges all groups intersecting the
    convex closure of [seed] into one, and every group in a condensation
    cycle with it, re-closing until stable.  Returns
    the merged group and the untouched remainder, or [None] when the
    merged group is infeasible (resources or kinship). *)

val merge_pair : Objective.t -> groups -> int list -> int list -> (int list * groups) option
(** Absorbing merge seeded with the union of two existing groups (which
    must be members of [groups]). *)

val random_plan : Objective.t -> Kf_util.Rng.t -> ?merge_attempts:int -> int -> groups
(** [random_plan obj rng ~merge_attempts n] starts from the identity
    partition over [n] kernels and performs random absorbing merges of
    kin-adjacent groups, keeping only feasible results.
    [merge_attempts] defaults to [2 * n]. *)

val random_merge : Objective.t -> Kf_util.Rng.t -> groups -> groups
(** The merge move of the mutation and annealing neighbourhoods: a
    uniform group, a uniform kin-adjacent partner, their absorbing merge
    ([groups] unchanged when there is no partner or the merge is
    infeasible). *)

val reinsert_orphans : Objective.t -> Kf_util.Rng.t -> groups -> int list -> groups
(** Crossover repair: for each orphan [k] still a singleton, in order,
    collect the kin-adjacent merges that lower the projected cost of the
    two groups; take the best with probability 0.7, else a uniform one. *)

val dissolve : groups -> int list -> groups
(** Replace one group (matched by equality) by its singletons. *)

val eject : Objective.t -> groups -> int -> groups option
(** Remove kernel [k] from its group into a singleton, provided the
    remainder is still feasible; [None] otherwise (or if [k] is already a
    singleton). *)

val normalize : groups -> groups
(** Canonical form: members sorted within groups, groups sorted by first
    member. *)

val schedulable : Objective.t -> groups -> bool
(** Whether the condensed (per-group) dependency graph is acyclic — the
    whole-plan constraint that per-group convexity (paper Eq. 1.3) does
    not by itself guarantee.  A plan that fails this cannot be emitted as
    a host invocation sequence. *)

val condensation_sccs : Kf_graph.Exec_order.t -> int list array -> int list list
(** Strongly connected components (Kosaraju) of the condensed per-group
    dependency graph, as lists of indices into the group array; kernels
    in no group carry no condensation edges.  {!schedulable} and
    {!repair_schedule} fall back to it when the condensation is cyclic. *)

val repair_schedule : Objective.t -> groups -> groups
(** Restore schedulability: every multi-group condensation cycle is merged
    (absorbing merge), or dissolved into singletons when the merge is
    infeasible. *)

val local_refine : ?max_passes:int -> Objective.t -> groups -> groups
(** The "hybrid" half of the HGGA (after Falkenauer): hill-climb by kernel
    relocation — try ejecting each kernel to a singleton and re-inserting
    it into each kinship-adjacent group, keeping the best improving move;
    repeat up to [max_passes] (default 3) sweeps or until no move
    improves.  Preserves feasibility and schedulability. *)

val enforce_profitability : Objective.t -> groups -> groups
(** Final-answer cleanup for constraint (1.1): any multi-member group whose
    projected runtime does not beat its original sum is dissolved. *)

val kin_adjacent_groups : Objective.t -> groups -> int list -> groups
(** Groups of the plan (other than the given one) containing at least one
    kinship neighbor of the given group's members — merge candidates. *)
