module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Inputs = Kf_model.Inputs
module Fused = Kf_fusion.Fused
module Plan = Kf_fusion.Plan
module Horizontal = Kf_fusion.Horizontal
module Metadata = Kf_ir.Metadata
module Device = Kf_gpu.Device
module Exec_order = Kf_graph.Exec_order
module Dag = Kf_graph.Dag
module Bitset = Kf_util.Bitset

(* ---- evaluation leaf ---------------------------------------------------- *)

let project model inputs f =
  match (model : Objective.model) with
  | Proposed -> Kf_model.Projection.runtime inputs f
  | Roofline -> Kf_model.Roofline.runtime inputs f
  | Simple -> Kf_model.Simple_model.runtime inputs f
  | Mwp -> Kf_model.Mwp.runtime inputs f

let evaluate_legacy model (i : Inputs.t) group : Objective.verdict =
  match group with
  | [ k ] ->
      let cost = i.Inputs.measured_runtime.(k) in
      { feasible = true; cost; orig_sum = cost }
  | _ ->
      let orig_sum = Inputs.original_sum i group in
      (* Active-constraint pruning: cheap structural checks first, resource
         checks only on structurally valid groups, model evaluation only on
         fully feasible ones. *)
      if not (Metadata.kinship_connected i.Inputs.meta group) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if Exec_order.group_spans_sync i.Inputs.exec group then
        { feasible = false; cost = Float.infinity; orig_sum }
      else if not (Exec_order.group_is_convex i.Inputs.exec group) then
        { feasible = false; cost = Float.infinity; orig_sum }
      else begin
        let f = Fused.build ~device:i.Inputs.device ~meta:i.Inputs.meta ~exec:i.Inputs.exec ~group in
        let d = i.Inputs.device in
        if
          f.Fused.vertical_hazard
          || f.Fused.smem_bytes_per_block > d.Device.smem_per_smx
          || f.Fused.registers_per_thread >= d.Device.max_registers_per_thread
        then { feasible = false; cost = Float.infinity; orig_sum }
        else { feasible = true; cost = project model i f; orig_sum }
      end

let guard model inputs : Objective.guard = fun _eval group -> evaluate_legacy model inputs group

(* ---- uncached sums ------------------------------------------------------ *)

(* Resource pressure one plane brings to a horizontal launch: the
   original kernel's registers, or the [Fused.build] kernel's demand. *)
let plane_pressure (i : Inputs.t) g =
  match g with
  | [ k ] ->
      let p = Metadata.program i.Inputs.meta in
      Horizontal.pressure
        ~regs:(Kf_ir.Program.kernel p k).Kf_ir.Kernel.registers_per_thread ~smem:0
  | g ->
      let f = Fused.build ~device:i.Inputs.device ~meta:i.Inputs.meta ~exec:i.Inputs.exec ~group:g in
      Horizontal.pressure ~regs:f.Fused.registers_per_thread ~smem:f.Fused.smem_bytes_per_block

let group_cost model i g = (evaluate_legacy model i g).Objective.cost

let plan_sum model i groups =
  List.fold_left (fun acc g -> acc +. group_cost model i g) 0. (Plan.canonical_groups groups)

let pack_cost model (i : Inputs.t) pack =
  match pack with
  | [ g ] -> group_cost model i g
  | planes ->
      let verdicts = List.map (evaluate_legacy model i) planes in
      if
        (not (Plan.planes_independent ~exec:i.Inputs.exec planes))
        || List.exists (fun v -> not v.Objective.feasible) verdicts
      then Float.infinity
      else begin
        let grid = (Metadata.program i.Inputs.meta).Kf_ir.Program.grid in
        Horizontal.runtime i.Inputs.device
          ~threads_per_block:(Kf_ir.Grid.threads_per_block grid)
          ~blocks:(Kf_ir.Grid.blocks grid)
          ~costs:(List.map (fun v -> v.Objective.cost) verdicts)
          (Horizontal.combine_pressure (List.map (plane_pressure i) planes))
      end

let comp_sum model i comps =
  List.fold_left (fun acc pack -> acc +. pack_cost model i pack) 0. (Plan.canonical_comps comps)

(* ---- structural operators ----------------------------------------------- *)

let exec_of obj = (Objective.inputs obj).Inputs.exec

let absorbing_merge obj groups seed =
  let exec = exec_of obj in
  let dag = Exec_order.dag exec in
  let merged = ref (Bitset.of_list (Dag.num_nodes dag) seed) in
  let rest = ref groups in
  let stable = ref false in
  while not !stable do
    merged := Dag.path_closure dag !merged;
    let intersecting, untouched =
      List.partition (fun g -> List.exists (Bitset.mem !merged) g) !rest
    in
    if intersecting <> [] then begin
      List.iter (fun g -> List.iter (Bitset.add !merged) g) intersecting;
      rest := untouched
    end
    else begin
      let arr = Array.of_list (Bitset.to_list !merged :: !rest) in
      match
        List.find_opt
          (fun scc -> List.mem 0 scc && List.length scc > 1)
          (Grouping.condensation_sccs exec arr)
      with
      | None -> stable := true
      | Some scc ->
          let absorb_idx = List.filter (( <> ) 0) scc in
          List.iter (fun gi -> List.iter (Bitset.add !merged) arr.(gi)) absorb_idx;
          rest := List.filteri (fun i _ -> not (List.mem (i + 1) absorb_idx)) !rest
    end
  done;
  let group = Bitset.to_list !merged in
  if Objective.group_feasible obj group then Some (group, !rest) else None

let merge_pair obj groups a b =
  absorbing_merge obj (List.filter (fun g -> g <> a && g <> b) groups) (a @ b)

let schedulable obj groups =
  List.for_all
    (fun scc -> List.length scc <= 1)
    (Grouping.condensation_sccs (exec_of obj) (Array.of_list groups))

let repair_schedule obj groups =
  let result = ref groups in
  let continue_ = ref true in
  while !continue_ do
    let arr = Array.of_list !result in
    match
      List.find_opt
        (fun scc -> List.length scc > 1)
        (Grouping.condensation_sccs (exec_of obj) arr)
    with
    | None -> continue_ := false
    | Some scc -> (
        let in_scc = List.concat_map (fun gi -> arr.(gi)) scc in
        let others = List.filteri (fun i _ -> not (List.mem i scc)) !result in
        match absorbing_merge obj others in_scc with
        | Some (merged, rest) -> result := merged :: rest
        | None -> result := List.map (fun k -> [ k ]) in_scc @ others)
  done;
  !result

let kin_adjacent_raw obj groups group =
  let meta = (Objective.inputs obj).Inputs.meta in
  let neighbors =
    List.concat_map (fun k -> Metadata.kin_neighbors meta k) group
    |> List.sort_uniq compare
    |> List.filter (fun k -> not (List.mem k group))
  in
  List.filter (fun g -> g <> group && List.exists (fun k -> List.mem k neighbors) g) groups
