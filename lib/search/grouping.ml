module Rng = Kf_util.Rng
module Bitset = Kf_util.Bitset
module Inputs = Kf_model.Inputs
module Metadata = Kf_ir.Metadata
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag

type groups = int list list

(* Int-specialized, and already-sorted member lists (the common case by
   far: bitset extractions, previously normalized plans) are reused
   rather than re-sorted. *)
let normalize groups =
  List.map
    (fun g -> if Kf_fusion.Plan.is_sorted_strict g then g else List.sort Int.compare g)
    groups
  |> List.sort (fun a b -> Int.compare (List.hd a) (List.hd b))

let exec_of obj = (Objective.inputs obj).Inputs.exec
let meta_of obj = (Objective.inputs obj).Inputs.meta

(* Strongly connected components of the condensed (per-group) dependency
   graph.  Per-group path convexity (paper Eq. 1.3) does not by itself
   guarantee that the new kernels can be ordered — two convex groups can
   still depend on each other through different members — so merges must
   also swallow any condensation cycle they create. *)
let condensation_sccs exec groups_arr =
  let dag = Exec_order.dag exec in
  let ng = Array.length groups_arr in
  let group_of = Hashtbl.create 64 in
  Array.iteri (fun gi g -> List.iter (fun k -> Hashtbl.replace group_of k gi) g) groups_arr;
  let adj = Array.make ng [] in
  let radj = Array.make ng [] in
  for u = 0 to Dag.num_nodes dag - 1 do
    if Hashtbl.mem group_of u then
      List.iter
        (fun v ->
          match (Hashtbl.find_opt group_of u, Hashtbl.find_opt group_of v) with
          | Some gu, Some gv when gu <> gv ->
              adj.(gu) <- gv :: adj.(gu);
              radj.(gv) <- gu :: radj.(gv)
          | _ -> ())
        (Dag.succs dag u)
  done;
  (* Kosaraju. *)
  let visited = Array.make ng false in
  let order = ref [] in
  let rec dfs1 v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter dfs1 adj.(v);
      order := v :: !order
    end
  in
  for v = 0 to ng - 1 do
    dfs1 v
  done;
  let comp = Array.make ng (-1) in
  let rec dfs2 v c =
    if comp.(v) < 0 then begin
      comp.(v) <- c;
      List.iter (fun w -> dfs2 w c) radj.(v)
    end
  in
  let nc = ref 0 in
  List.iter
    (fun v ->
      if comp.(v) < 0 then begin
        dfs2 v !nc;
        incr nc
      end)
    !order;
  let sccs = Array.make !nc [] in
  Array.iteri (fun gi c -> sccs.(c) <- gi :: sccs.(c)) comp;
  Array.to_list sccs

(* Kernel -> index of its group in [arr]; kernels in no group stay [-1]
   and, as in [condensation_sccs], carry no condensation edges. *)
let group_index n arr =
  let idx = Array.make n (-1) in
  Array.iteri (fun gi g -> List.iter (fun k -> idx.(k) <- gi) g) arr;
  idx

(* [f gj] once per kernel-level edge (along [adj]) leaving group [gi]
   into another group [gj] — condensation edges with multiplicity, in
   O(members + their edges). *)
let iter_group_edges idx adj arr gi f =
  List.iter
    (fun u ->
      let vs = adj.(u) in
      for e = 0 to Array.length vs - 1 do
        let gj = idx.(Array.unsafe_get vs e) in
        if gj >= 0 && gj <> gi then f gj
      done)
    arr.(gi)

(* Group-level acyclicity: Kahn's algorithm over the per-kernel
   successor lists.  In-degrees count edges with multiplicity, which
   drains exactly like the simple condensation graph.  Both consumers of
   [sccs_of] only inspect component {e sizes}, so when the condensation
   is acyclic any all-singleton component list is behaviorally
   interchangeable with Kosaraju's — which lets the memo miss path skip
   the full SCC pass in the (overwhelmingly common) schedulable case. *)
let group_dag_acyclic (m : Struct_memo.memos) arr =
  let ng = Array.length arr in
  ng <= 1
  ||
  let succ = m.Struct_memo.succ_adj in
  let idx = group_index (Array.length succ) arr in
  let indeg = Array.make ng 0 in
  for gi = 0 to ng - 1 do
    iter_group_edges idx succ arr gi (fun gj -> indeg.(gj) <- indeg.(gj) + 1)
  done;
  let ready = Array.make ng 0 and top = ref 0 and removed = ref 0 in
  let push gj =
    ready.(!top) <- gj;
    incr top
  in
  Array.iteri (fun gj d -> if d = 0 then push gj) indeg;
  while !top > 0 do
    decr top;
    incr removed;
    iter_group_edges idx succ arr ready.(!top) (fun gj ->
        indeg.(gj) <- indeg.(gj) - 1;
        if indeg.(gj) = 0 then push gj)
  done;
  !removed = ng

(* Structural operators are pure functions of the (fixed) execution
   order, metadata and their arguments, and the GA re-asks the same
   structural questions constantly; each of the wrappers below memoizes
   its operator under an exact-order signature in the objective's memo
   bundle (see {!Struct_memo} for why the keys must not be
   canonicalized). *)
let sccs_of obj groups_arr =
  let m = Objective.memos obj in
  Struct_memo.find_exact m.Struct_memo.sccs (Array.to_list groups_arr) (fun () ->
      if group_dag_acyclic m groups_arr then
        List.init (Array.length groups_arr) (fun i -> [ i ])
      else condensation_sccs (exec_of obj) groups_arr)

(* Memo hits return a fresh bitset (the table copies on both sides):
   callers mutate the closure in place, and a shared cached bitset would
   be corrupted by the first caller. *)
let closure_of obj dag bs =
  Struct_memo.find_or_compute_bitset (Objective.memos obj).Struct_memo.closure bs (fun () ->
      Dag.path_closure dag bs)

let schedulable obj groups =
  List.for_all (fun scc -> List.length scc <= 1) (sccs_of obj (Array.of_list groups))

(* Group indices (never 0 itself) in a condensation cycle with group 0:
   [{j | 0 ->+ j and j ->+ 0}] at group granularity — exactly the members
   of the [condensation_sccs] component containing group 0, minus 0.  One
   forward walk over the successor lists and one backward walk over the
   predecessor lists, both through the kernel->group index: O(kernels +
   edges), with no per-group sets and no full Kosaraju pass. *)
let cycle_with_zero (m : Struct_memo.memos) arr =
  let ng = Array.length arr in
  if ng <= 1 then []
  else begin
    let idx = group_index (Array.length m.Struct_memo.succ_adj) arr in
    let reach adj =
      let seen = Array.make ng false and stack = Array.make ng 0 and top = ref 1 in
      seen.(0) <- true;
      while !top > 0 do
        decr top;
        iter_group_edges idx adj arr stack.(!top) (fun gj ->
            if not seen.(gj) then begin
              seen.(gj) <- true;
              stack.(!top) <- gj;
              incr top
            end)
      done;
      seen
    in
    let fwd = reach m.Struct_memo.succ_adj and bwd = reach m.Struct_memo.pred_adj in
    let acc = ref [] in
    for j = ng - 1 downto 1 do
      if fwd.(j) && bwd.(j) then acc := j :: !acc
    done;
    !acc
  end

(* Not memoized (see {!Struct_memo} for why): with the default unbounded
   verdict cache a repeat merge's feasibility probe is a cache hit, so
   evaluation counts do not depend on it. *)
let absorbing_merge obj groups seed =
  let exec = exec_of obj in
  let dag = Exec_order.dag exec in
  let n = Dag.num_nodes dag in
  let merged = ref (Bitset.of_list n seed) in
  let rest = ref groups in
  let stable = ref false in
  while not !stable do
    (* Close under the path constraint, then absorb any group that now
       intersects the closure; repeat until nothing more is pulled in. *)
    merged := closure_of obj dag !merged;
    let intersecting, untouched =
      List.partition (fun g -> List.exists (Bitset.mem !merged) g) !rest
    in
    if intersecting <> [] then begin
      List.iter (fun g -> List.iter (Bitset.add !merged) g) intersecting;
      rest := untouched
    end
    else begin
      (* Closure stable: absorb any condensation cycle through the merged
         group (the merge may have created mutual dependencies with
         otherwise-untouched groups). *)
      let arr = Array.of_list (Bitset.to_list !merged :: !rest) in
      let absorb_idx = cycle_with_zero (Objective.memos obj) arr in
      match absorb_idx with
      | [] -> stable := true
      | _ ->
          List.iter (fun gi -> List.iter (Bitset.add !merged) arr.(gi)) absorb_idx;
          rest := List.filteri (fun i _ -> not (List.mem (i + 1) absorb_idx)) !rest
    end
  done;
  let group = Bitset.to_list !merged in
  if Objective.group_feasible obj group then Some (group, !rest) else None

let repair_schedule obj groups =
  (* Merge every multi-group condensation cycle; if the merged group is
     infeasible, dissolve the cycle's groups into singletons (a refinement
     never introduces new cycles). *)
  let result = ref groups in
  let continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !result in
    match List.find_opt (fun scc -> List.length scc > 1) (sccs_of obj arr) with
    | None -> continue_ := false
    | Some scc ->
        let in_scc = List.concat_map (fun gi -> arr.(gi)) scc in
        let others =
          List.filteri (fun i _ -> not (List.mem i scc)) !result
        in
        (match absorbing_merge obj others in_scc with
        | Some (merged, rest) -> result := merged :: rest
        | None -> result := List.map (fun k -> [ k ]) in_scc @ others)
  done;
  !result

let merge_pair obj groups a b =
  let others = List.filter (fun g -> g <> a && g <> b) groups in
  absorbing_merge obj others (a @ b)

let kin_neighbor_list obj group =
  let meta = meta_of obj in
  List.concat_map (fun k -> Metadata.kin_neighbors meta k) group
  |> List.sort_uniq compare
  |> List.filter (fun k -> not (List.mem k group))

(* The adjacency predicate depends only on the probe group's (fixed,
   metadata-derived) kinship neighbor set, never on the rest of the
   partition — so the memo caches that set per group, and the
   order-preserving filter over [groups] runs on every call. *)
let kin_adjacent_groups obj groups group =
  let nb =
    Struct_memo.find_group (Objective.memos obj).Struct_memo.kin group (fun () ->
        let n = Dag.num_nodes (Exec_order.dag (exec_of obj)) in
        Bitset.of_list n (kin_neighbor_list obj group))
  in
  List.filter (fun g -> g <> group && List.exists (Bitset.mem nb) g) groups

let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  let groups = ref (List.init n (fun k -> [ k ])) in
  (* Kept in sync with [groups]; most attempts mutate nothing, so the
     array is only rebuilt after an accepted merge. *)
  let arr = ref (Array.of_list !groups) in
  for _ = 1 to attempts do
    if Array.length !arr >= 2 then begin
      let g = Rng.choose rng !arr in
      match kin_adjacent_groups obj !groups g with
      | [] -> ()
      | candidates -> begin
          let partner = Rng.choose rng (Array.of_list candidates) in
          match merge_pair obj !groups g partner with
          | Some (merged, rest) ->
              (* Keep the merge only when the model likes it at least half
                 the time; always-greedy initial populations collapse into
                 one basin. *)
              let keep =
                Objective.group_profitable obj merged || Rng.chance rng 0.25
              in
              if keep then begin
                groups := merged :: rest;
                arr := Array.of_list !groups
              end
          | None -> ()
        end
    end
  done;
  normalize !groups

let dissolve groups g =
  let found = ref false in
  let out =
    List.concat_map
      (fun g' ->
        if (not !found) && g' = g then begin
          found := true;
          List.map (fun k -> [ k ]) g'
        end
        else [ g' ])
      groups
  in
  out

let eject obj groups k =
  let target = List.find_opt (fun g -> List.mem k g) groups in
  match target with
  | None | Some [ _ ] -> None
  | Some g ->
      let remainder = List.filter (( <> ) k) g in
      if
        Objective.group_feasible obj remainder
        && Exec_order.group_is_convex (exec_of obj) remainder
      then begin
        let others = List.filter (fun g' -> g' <> g) groups in
        Some ([ k ] :: remainder :: others)
      end
      else None

let relocation_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  let kernels = List.concat !current in
  List.iter
    (fun k ->
      let base = cost !current in
      let own = List.find (List.mem k) !current in
      (* Candidate plans: k alone, and k merged into each adjacent group.
         Relocation of a non-singleton member goes through eject (which
         checks the remainder's feasibility). *)
      let as_singleton =
        if List.length own = 1 then Some !current else eject obj !current k
      in
      match as_singleton with
      | None -> ()
      | Some ejected ->
          let candidates =
            ejected
            :: List.filter_map
                 (fun g ->
                   match merge_pair obj ejected [ k ] g with
                   | Some (merged, rest) -> Some (merged :: rest)
                   | None -> None)
                 (kin_adjacent_groups obj ejected [ k ])
          in
          let best =
            List.fold_left
              (fun acc cand ->
                let c = cost cand in
                match acc with Some (bc, _) when bc <= c -> acc | _ -> Some (c, cand))
              None candidates
          in
          (match best with
          | Some (c, cand) when c < base -. 1e-15 ->
              current := cand;
              improved := true
          | _ -> ()))
    kernels;
  !improved

(* Exchange one kernel between two multi-member groups.  Relocation alone
   cannot repair mispaired groups ({a,c},{b,d} vs {a,b},{c,d}) because the
   intermediate states do not improve. *)
let swap_pass obj current =
  let cost gs = Objective.plan_cost obj gs in
  let improved = ref false in
  let multi () = List.filter (fun g -> List.length g >= 2) !current in
  List.iter
    (fun g1 ->
      if List.mem g1 !current then
        List.iter
          (fun g2 ->
            if List.mem g1 !current && List.mem g2 !current && g1 <> g2 then
              List.iter
                (fun k1 ->
                  List.iter
                    (fun k2 ->
                      if List.mem g1 !current && List.mem g2 !current then begin
                        let base = cost !current in
                        let ( >>= ) o f = match o with None -> None | Some x -> f x in
                        let plan =
                          eject obj !current k1 >>= fun p1 ->
                          eject obj p1 k2 >>= fun p2 ->
                          let r2 = List.filter (( <> ) k2) g2 in
                          let r1 = List.filter (( <> ) k1) g1 in
                          (if List.mem r2 p2 then merge_pair obj p2 [ k1 ] r2 else None)
                          >>= fun (m1, rest1) ->
                          let p3 = m1 :: rest1 in
                          if List.mem r1 p3 then begin
                            merge_pair obj p3 [ k2 ] r1 >>= fun (m2, rest2) ->
                            Some (m2 :: rest2)
                          end
                          else None
                        in
                        match plan with
                        | Some cand when cost cand < base -. 1e-15 ->
                            current := cand;
                            improved := true
                        | _ -> ()
                      end)
                    g2)
                g1)
          (multi ()))
    (multi ());
  !improved

let local_refine_raw ~max_passes obj groups =
  let n = List.fold_left (fun acc g -> acc + List.length g) 0 groups in
  let current = ref groups in
  let improved = ref true in
  let passes = ref 0 in
  while !improved && !passes < max_passes do
    incr passes;
    improved := relocation_pass obj current;
    (* The quadratic swap neighborhood only pays on small instances. *)
    if n <= 48 then improved := swap_pass obj current || !improved
  done;
  normalize !current

(* Refinement is deterministic in its input and the GA refines the
   generation champion every generation — which rarely changes between
   improvements, so repeat refinements of the same (exact-order) plan
   are hits.  The objective probes a hit skips would all be cache hits
   themselves, so evaluation counts are unchanged. *)
let local_refine ?(max_passes = 3) obj groups =
  Struct_memo.find_exact_with (Objective.memos obj).Struct_memo.refine groups [ max_passes ]
    (fun () -> local_refine_raw ~max_passes obj groups)

let enforce_profitability obj groups =
  normalize
    (List.concat_map
       (fun g ->
         if List.length g >= 2 && not (Objective.group_profitable obj g) then
           List.map (fun k -> [ k ]) g
         else [ g ])
       groups)
