module Rng = Kf_util.Rng
module Wordset = Kf_util.Wordset
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

(* ---- index-based partition view ----------------------------------------- *)

type view = {
  groups : int list array;  (* slot -> members, in the caller's list order *)
  slot : int array;  (* kernel -> slot; -1 for kernels in no group *)
  cov : Wordset.t;  (* kernels in some group *)
}

let rows_of obj = (Objective.memos obj).Struct_memo.rows

let view_of_array obj groups =
  let n = Array.length (rows_of obj).Struct_memo.reach in
  let slot = Array.make n (-1) and cov = Wordset.create n in
  Array.iteri
    (fun s g ->
      List.iter
        (fun k ->
          slot.(k) <- s;
          Wordset.add cov k)
        g)
    groups;
  { groups; slot; cov }

let view obj groups = view_of_array obj (Array.of_list groups)
let view_groups v = v.groups

(* Add the members of a group to [seen] and OR their [rows] into
   [next]. *)
let rec enter_group rows seen next = function
  | [] -> ()
  | k :: tl ->
      Wordset.add seen k;
      let r = Array.unsafe_get rows k in
      for w = 0 to Array.length next - 1 do
        Array.unsafe_set next w (Array.unsafe_get next w lor Array.unsafe_get r w)
      done;
      enter_group rows seen next tl

(* Group-level reach from the kernel set [m], whose own direct edges are
   the row [from], along the per-kernel direct-edge [rows], entering
   only kernels in [mask]: every group the walk enters is taken whole,
   and its members' edges are followed in the next round.  Returns the
   reached kernels ([m] included) and the entered slots (the first
   [count] entries of the returned array). *)
let group_walk v rows ~mask ~from m =
  let seen = Array.copy m and next = Array.copy from in
  let entered = Array.make (Array.length v.groups) 0 and count = ref 0 in
  let busy = ref true in
  while !busy do
    busy := false;
    for w = 0 to Array.length next - 1 do
      let fresh = ref (next.(w) land mask.(w) land lnot seen.(w)) in
      next.(w) <- 0;
      while !fresh <> 0 do
        busy := true;
        let s = v.slot.((w * Wordset.bits) + Wordset.lowest !fresh) in
        entered.(!count) <- s;
        incr count;
        enter_group rows seen next v.groups.(s);
        fresh := !fresh land lnot seen.(w)
      done
    done
  done;
  (seen, entered, !count)

(* Group-level acyclicity: Kahn's algorithm over the per-kernel
   successor rows.  An edge [gi -> gj] is counted once per pair of a
   member of [gi] and a successor of it in [gj]; the multiplicity is the
   same when counting and when draining, so it drains exactly like the
   simple condensation graph.  Both consumers of [sccs_of] only inspect
   component {e sizes}, so when the condensation is acyclic any
   all-singleton component list is behaviorally interchangeable with
   Kosaraju's — which lets the memo miss path skip the full SCC pass in
   the (overwhelmingly common) schedulable case. *)
let group_dag_acyclic obj arr =
  let ng = Array.length arr in
  ng <= 1
  ||
  let v = view_of_array obj arr and succ = (rows_of obj).Struct_memo.succ in
  let iter_out gi f =
    List.iter
      (fun u ->
        Wordset.iter
          (fun k ->
            let gj = v.slot.(k) in
            if gj >= 0 && gj <> gi then f gj)
          succ.(u))
      arr.(gi)
  in
  let indeg = Array.make ng 0 in
  for gi = 0 to ng - 1 do
    iter_out gi (fun gj -> indeg.(gj) <- indeg.(gj) + 1)
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
    iter_out ready.(!top) (fun gj ->
        indeg.(gj) <- indeg.(gj) - 1;
        if indeg.(gj) = 0 then push gj)
  done;
  !removed = ng

(* Structural operators are pure functions of the (fixed) execution
   order, metadata and their arguments; the SCCs of a group array are
   memoized under an exact-order signature in the objective's memo
   bundle (see {!Struct_memo} for why the key must not be
   canonicalized). *)
let sccs_of obj groups_arr =
  let m = Objective.memos obj in
  Struct_memo.find_exact m.Struct_memo.sccs (Array.to_list groups_arr) (fun () ->
      if group_dag_acyclic obj groups_arr then
        List.init (Array.length groups_arr) (fun i -> [ i ])
      else condensation_sccs (exec_of obj) groups_arr)

let schedulable obj groups =
  List.for_all (fun scc -> List.length scc <= 1) (sccs_of obj (Array.of_list groups))

type merge = { members : int list; absorbed : int list }

(* The absorbing merge: the least superset of the seeds closed under the
   path constraint ([M ∪ (reach M ∩ coreach M)]), under absorbing every
   group it intersects, and under absorbing every group in a
   condensation cycle with it.  All three closures are monotone, so the
   fixpoint does not depend on the order they are applied in.  Not
   memoized (see {!Struct_memo}): with the default unbounded verdict
   cache a repeat merge's feasibility probe is a cache hit, so
   evaluation counts do not depend on it. *)
let merge_core obj v seed1 seed2 =
  let rows = rows_of obj in
  let nw = Array.length v.cov in
  let m = Array.make nw 0 and pending = Array.make nw 0 in
  (* Unions of the members' reach, coreach, successor and predecessor
     rows, kept up to date as members arrive. *)
  let reach = Array.make nw 0 and coreach = Array.make nw 0 in
  let out = Array.make nw 0 and inn = Array.make nw 0 in
  let absorbed = Wordset.create (Array.length v.groups) in
  let add k =
    if not (Wordset.mem m k) then begin
      Wordset.add m k;
      Wordset.add pending k
    end
  in
  let rec add_all = function
    | [] -> ()
    | k :: tl ->
        add k;
        add_all tl
  in
  let absorb s =
    Wordset.add absorbed s;
    add_all v.groups.(s)
  in
  (* Union the rows of every pending member and absorb its group. *)
  let rec settle () =
    let busy = ref false in
    for w = 0 to nw - 1 do
      let x = ref pending.(w) in
      if !x <> 0 then begin
        busy := true;
        pending.(w) <- 0;
        while !x <> 0 do
          let k = (w * Wordset.bits) + Wordset.lowest !x in
          x := !x land (!x - 1);
          let s = v.slot.(k) in
          if s >= 0 && not (Wordset.mem absorbed s) then absorb s;
          let r = rows.Struct_memo.reach.(k) and c = rows.Struct_memo.coreach.(k) in
          let su = rows.Struct_memo.succ.(k) and pr = rows.Struct_memo.pred.(k) in
          for w = 0 to nw - 1 do
            reach.(w) <- reach.(w) lor Array.unsafe_get r w;
            coreach.(w) <- coreach.(w) lor Array.unsafe_get c w;
            out.(w) <- out.(w) lor Array.unsafe_get su w;
            inn.(w) <- inn.(w) lor Array.unsafe_get pr w
          done
        done
      end
    done;
    if !busy then settle ()
  in
  (* Path closure: kernels both reachable from and reaching members. *)
  let close () =
    let grew = ref false in
    for w = 0 to nw - 1 do
      let fresh = reach.(w) land coreach.(w) land lnot m.(w) in
      if fresh <> 0 then begin
        grew := true;
        m.(w) <- m.(w) lor fresh;
        pending.(w) <- pending.(w) lor fresh
      end
    done;
    !grew
  in
  (* Slots in a condensation cycle with the merged set: [{j | m ->+ j and
     j ->+ m}] at group granularity.  The forward walk comes first: the
     last group on a path back into [m] holds an ancestor of a member,
     so with no ancestor reached there is no cycle.  Every group on a
     path [j ->+ m] from a cycle group [j] is itself reachable from [m],
     so the backward walk enters only what the forward walk reached —
     and the groups it enters are the cycle. *)
  let cycle () =
    let forward, _, count = group_walk v rows.Struct_memo.succ ~mask:v.cov ~from:out m in
    let rec closes w = w < nw && (forward.(w) land coreach.(w) land lnot m.(w) <> 0 || closes (w + 1)) in
    count > 0
    && closes 0
    &&
    let _, slots, count = group_walk v rows.Struct_memo.pred ~mask:forward ~from:inn m in
    for i = 0 to count - 1 do
      absorb slots.(i)
    done;
    count > 0
  in
  List.iter add seed1;
  List.iter add seed2;
  let rec fix () =
    settle ();
    if close () || cycle () then fix ()
  in
  fix ();
  let members = Wordset.to_list m in
  if Objective.group_feasible obj members then
    Some { members; absorbed = Wordset.to_list absorbed }
  else None

let merge_slots obj v a b = merge_core obj v v.groups.(a) v.groups.(b)

let remainder v r =
  let rec build s skip acc =
    if s < 0 then acc
    else
      match skip with
      | a :: tl when a = s -> build (s - 1) tl acc
      | _ -> build (s - 1) skip (v.groups.(s) :: acc)
  in
  build (Array.length v.groups - 1) (List.rev r.absorbed) []

let apply v r = r.members :: remainder v r

let absorbing_merge obj groups seed =
  let v = view obj groups in
  Option.map (fun r -> (r.members, remainder v r)) (merge_core obj v seed [])

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

(* Slots (increasing, i.e. in the caller's list order) of the groups
   holding a kinship neighbour of [group]'s members, other than those
   members.  The neighbour set is the union of the members' kinship
   rows. *)
let kin_adjacent_slots obj v group =
  let kin = (rows_of obj).Struct_memo.kin in
  let nb = Array.make (Array.length v.cov) 0 in
  List.iter (fun k -> Wordset.union_into nb kin.(k)) group;
  List.iter (Wordset.remove nb) group;
  let acc = ref [] in
  Wordset.iter
    (fun k ->
      let s = v.slot.(k) in
      if s >= 0 then acc := s :: !acc)
    nb;
  Array.of_list (List.sort_uniq Int.compare !acc)

let kin_adjacent_groups obj groups group =
  let v = view obj groups in
  Array.fold_right (fun s acc -> v.groups.(s) :: acc) (kin_adjacent_slots obj v group) []

(* [List.filter_map] over slots, applied in increasing slot order. *)
let filter_map_slots f slots =
  let acc = ref [] in
  Array.iter (fun s -> match f s with Some x -> acc := x :: !acc | None -> ()) slots;
  List.rev !acc

(* A uniform group and a uniform kin-adjacent partner, merged: the
   shared "merge" move of the mutation and annealing neighbourhoods. *)
let random_merge obj rng groups =
  let v = view obj groups in
  let g = Rng.int rng (Array.length v.groups) in
  match kin_adjacent_slots obj v v.groups.(g) with
  | [||] -> groups
  | candidates -> (
      match merge_slots obj v g (Rng.choose rng candidates) with
      | Some r -> apply v r
      | None -> groups)

let random_plan obj rng ?merge_attempts n =
  let attempts = match merge_attempts with Some a -> a | None -> 2 * n in
  (* Most attempts change nothing, so the view is only rebuilt after an
     accepted merge. *)
  let v = ref (view obj (List.init n (fun k -> [ k ]))) in
  for _ = 1 to attempts do
    let v0 = !v in
    let ng = Array.length v0.groups in
    if ng >= 2 then begin
      let g = Rng.int rng ng in
      match kin_adjacent_slots obj v0 v0.groups.(g) with
      | [||] -> ()
      | candidates -> (
          match merge_slots obj v0 g (Rng.choose rng candidates) with
          | Some r ->
              (* Keep the merge only when the model likes it at least half
                 the time; always-greedy initial populations collapse into
                 one basin. *)
              let keep = Objective.group_profitable obj r.members || Rng.chance rng 0.25 in
              if keep then v := view obj (apply v0 r)
          | None -> ())
    end
  done;
  normalize (Array.to_list !v.groups)

(* Crossover repair: pull each orphan singleton back into a
   kin-adjacent group when that lowers the projected total.  Usually the
   best improving merge is taken, but sometimes a random improving one —
   a deterministic repair drives every child into the same pairing
   basin. *)
let reinsert_orphans obj rng groups orphans =
  let v = ref (view obj groups) in
  List.iter
    (fun k ->
      let v0 = !v in
      let own = v0.slot.(k) in
      if own >= 0 && v0.groups.(own) = [ k ] then begin
        let improving =
          filter_map_slots
            (fun s ->
              match merge_slots obj v0 own s with
              | None -> None
              | Some r ->
                  let before =
                    Objective.group_cost obj v0.groups.(own) +. Objective.group_cost obj v0.groups.(s)
                  in
                  let delta = Objective.group_cost obj r.members -. before in
                  if delta < 0. then Some (delta, r) else None)
            (kin_adjacent_slots obj v0 v0.groups.(own))
        in
        match improving with
        | [] -> ()
        | options ->
            let _, r =
              if Rng.chance rng 0.7 then
                List.fold_left
                  (fun acc o -> if fst acc <= fst o then acc else o)
                  (List.hd options) (List.tl options)
              else Rng.choose rng (Array.of_list options)
            in
            v := view obj (apply v0 r)
      end)
    orphans;
  Array.to_list !v.groups

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
          let v = view obj ejected in
          let own = v.slot.(k) in
          let candidates =
            ejected
            :: filter_map_slots
                 (fun s -> Option.map (apply v) (merge_slots obj v own s))
                 (kin_adjacent_slots obj v v.groups.(own))
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
