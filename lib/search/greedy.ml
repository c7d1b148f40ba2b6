module Inputs = Kf_model.Inputs
module Program = Kf_ir.Program

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  merges : int;
}

let solve obj =
  let n = Program.num_kernels (Objective.inputs obj).Inputs.program in
  let groups = ref (List.init n (fun k -> [ k ])) in
  let merges = ref 0 in
  let improved = ref true in
  while !improved do
    improved := false;
    (* Scan all kin-adjacent pairs for the single best improving merge;
       only the winner's remainder is built. *)
    let v = Grouping.view obj !groups in
    let gs = Grouping.view_groups v in
    let best = ref None in
    Array.iteri
      (fun sg g ->
        Array.iter
          (fun sp ->
            let partner = gs.(sp) in
            (* Consider each unordered pair once. *)
            if List.hd g < List.hd partner then begin
              match Grouping.merge_slots obj v sg sp with
              | None -> ()
              | Some r ->
                  let before = Objective.group_cost obj g +. Objective.group_cost obj partner in
                  let delta = Objective.group_cost obj r.Grouping.members -. before in
                  (match !best with
                  | Some (d, _) when d <= delta -> ()
                  | _ -> if delta < -1e-15 then best := Some (delta, r))
            end)
          (Grouping.kin_adjacent_slots obj v g))
      gs;
    match !best with
    | Some (_, r) ->
        groups := Grouping.apply v r;
        incr merges;
        improved := true
    | None -> ()
  done;
  let final = Grouping.enforce_profitability obj (Grouping.normalize !groups) in
  {
    groups = final;
    plan = Kf_fusion.Plan.of_groups ~n final;
    cost = Objective.plan_cost obj final;
    merges = !merges;
  }
