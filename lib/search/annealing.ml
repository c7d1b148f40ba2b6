module Rng = Kf_util.Rng
module Inputs = Kf_model.Inputs
module Program = Kf_ir.Program

type params = {
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
}

let default_params =
  { iterations = 4000; initial_temperature = 0.05; cooling = 0.9985; seed = 42 }

type result = {
  groups : Grouping.groups;
  plan : Kf_fusion.Plan.t;
  cost : float;
  iterations : int;
  accepted : int;
}

let neighbor obj rng groups =
  let multi = List.filter (fun g -> List.length g >= 2) groups in
  let ops = if multi = [] then [ `Merge ] else [ `Merge; `Merge; `Dissolve; `Eject ] in
  match Rng.choose_list rng ops with
  | `Dissolve -> Grouping.dissolve groups (Rng.choose rng (Array.of_list multi))
  | `Eject -> begin
      let victim = Rng.choose rng (Array.of_list multi) in
      let k = Rng.choose rng (Array.of_list victim) in
      match Grouping.eject obj groups k with Some g -> g | None -> groups
    end
  | `Merge -> Grouping.random_merge obj rng groups

let solve ?(params = default_params) obj =
  if params.iterations < 1 then invalid_arg "Annealing.solve: need at least one iteration";
  let rng = Rng.create params.seed in
  let n = Program.num_kernels (Objective.inputs obj).Inputs.program in
  let current = ref (List.init n (fun k -> [ k ])) in
  let current_cost = ref (Objective.plan_cost obj !current) in
  let best = ref !current and best_cost = ref !current_cost in
  let temperature = ref (params.initial_temperature *. !current_cost) in
  let accepted = ref 0 in
  for _ = 1 to params.iterations do
    let cand = neighbor obj rng !current in
    let cand_cost = Objective.plan_cost obj cand in
    let delta = cand_cost -. !current_cost in
    let accept =
      delta <= 0.
      || (!temperature > 0. && Rng.float rng 1.0 < exp (-.delta /. !temperature))
    in
    if accept then begin
      incr accepted;
      current := cand;
      current_cost := cand_cost;
      if cand_cost < !best_cost then begin
        best := cand;
        best_cost := cand_cost
      end
    end;
    temperature := !temperature *. params.cooling
  done;
  let final = Grouping.enforce_profitability obj (Grouping.normalize !best) in
  {
    groups = final;
    plan = Kf_fusion.Plan.of_groups ~n final;
    cost = Objective.plan_cost obj final;
    iterations = params.iterations;
    accepted = !accepted;
  }
