(** Differential oracles for the search objective and the grouping
    operators.

    The library has one evaluation path (signature-keyed caches over the
    allocation-free {!Kf_model.Feature_arena} leaf) and linear
    condensation walks in its grouping operators.  This module keeps the
    straightforward formulations they replaced, so tests and benches can
    check the fast path against them bit for bit:

    - {!evaluate_legacy} builds a {!Kf_fusion.Fused.t} per candidate.
      Installed through {!guard}, it turns any objective into the
      legacy-leaf objective, with no library knob.
    - {!plan_sum} and {!comp_sum} price plans and compositions with no
      cache at all, in canonical order.
    - {!absorbing_merge}, {!merge_pair}, {!schedulable} and
      {!repair_schedule} answer condensation questions with Kosaraju
      ({!Kf_search.Grouping.condensation_sccs}) and plain
      {!Kf_graph.Dag.path_closure}; {!kin_adjacent_raw} filters by a
      recomputed kinship neighbour list. *)

module Objective = Kf_search.Objective

val evaluate_legacy : Objective.model -> Kf_model.Inputs.t -> int list -> Objective.verdict
(** One group's verdict through [Fused.build]: active-constraint pruning
    (kinship, sync points, convexity, then hazards and resources) and the
    model's projection of the built kernel; singletons cost their
    measured runtime.  Sums original runtimes in member order, so pass
    canonically sorted groups to compare with {!Objective}. *)

val guard : Objective.model -> Kf_model.Inputs.t -> Objective.guard
(** A guard that ignores the objective's own leaf and answers every
    cache miss with {!evaluate_legacy}. *)

val plan_sum : Objective.model -> Kf_model.Inputs.t -> int list list -> float
(** Σ {!evaluate_legacy} costs over the canonical groups, in canonical
    order, without any cache. *)

val comp_sum : Objective.model -> Kf_model.Inputs.t -> int list list list -> float
(** Σ over the canonical packs of a composition, without any cache:
    single-plane packs cost their group, multi-plane packs are combined
    through {!Kf_fusion.Horizontal} from {!evaluate_legacy} plane costs
    and {!plane_pressure} ([infinity] when the planes depend on each
    other or any plane is infeasible). *)

val absorbing_merge :
  Objective.t -> int list list -> int list -> (int list * int list list) option
(** {!Kf_search.Grouping.absorbing_merge} with unmemoized path closures
    and condensation cycles found by Kosaraju. *)

val merge_pair :
  Objective.t -> int list list -> int list -> int list -> (int list * int list list) option

val schedulable : Objective.t -> int list list -> bool
(** Every Kosaraju component of the condensation is a single group. *)

val repair_schedule : Objective.t -> int list list -> int list list

val kin_adjacent_raw : Objective.t -> int list list -> int list -> int list list
(** {!Kf_search.Grouping.kin_adjacent_groups} with the kinship neighbour
    list recomputed and searched linearly on every call. *)
