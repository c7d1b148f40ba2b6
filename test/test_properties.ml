(* Cross-cutting property tests: invariants of fusion, measurement and
   search over randomly generated test-suite programs. *)

module Device = Kf_gpu.Device
module Program = Kf_ir.Program
module Kernel = Kf_ir.Kernel
module Metadata = Kf_ir.Metadata
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Traffic = Kf_graph.Traffic
module Fused = Kf_fusion.Fused
module Plan = Kf_fusion.Plan
module Measure = Kf_sim.Measure
module Inputs = Kf_model.Inputs
module Objective = Kf_search.Objective
module Grouping = Kf_search.Grouping
module Suite = Kf_workloads.Suite
module Rng = Kf_util.Rng

let device = Device.k20x

(* Random small program + context, derived deterministically from a seed. *)
let context_of_seed seed =
  let p =
    Suite.generate
      { Suite.default with Suite.kernels = 8 + (seed mod 7); arrays = 20 + (seed mod 11);
        thread_load = 4 + (4 * (seed mod 3)); seed }
  in
  let meta = Metadata.build p in
  let exec = Exec_order.build (Datadep.build p) in
  (p, meta, exec)

(* A random feasible group drawn via the search's own sampler. *)
let random_feasible_group seed =
  let p, meta, exec = context_of_seed seed in
  let measured_runtime =
    Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
  in
  let obj = Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime) in
  let rng = Rng.create (seed * 31) in
  let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
  let multi = List.filter (fun g -> List.length g >= 2) groups in
  match multi with
  | [] -> None
  | l -> Some (p, meta, exec, obj, List.nth l (Rng.int rng (List.length l)))

let prop_fused_registers_dominate_members =
  QCheck.Test.make ~count:60 ~name:"fused kernel needs at least the heaviest member's registers"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let max_member =
            List.fold_left
              (fun acc k -> max acc (Program.kernel p k).Kernel.registers_per_thread)
              0 g
          in
          f.Fused.registers_per_thread >= max_member)

let prop_fused_traffic_at_most_members =
  QCheck.Test.make ~count:60 ~name:"fusion never increases GMEM footprint traffic"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let members = List.fold_left (fun acc k -> acc +. Traffic.kernel_bytes p k) 0. g in
          (* Halo rings can add a little traffic on top of the footprint
             accounting, so allow a small margin. *)
          Fused.gmem_bytes p f <= members *. 1.05)

let prop_fused_flops_at_least_members =
  QCheck.Test.make ~count:60 ~name:"fusion never loses flops (halo only adds)"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let members =
            List.fold_left
              (fun acc k -> acc +. Kernel.total_flops (Program.kernel p k) p.Program.grid)
              0. g
          in
          Fused.total_flops p f >= members -. 1e-6)

let prop_fused_segments_cover_members =
  QCheck.Test.make ~count:60 ~name:"segments enumerate exactly the members, in order"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (_, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          List.map (fun s -> s.Fused.kernel) f.Fused.segments = f.Fused.members
          && List.sort compare f.Fused.members = List.sort compare g)

let prop_random_plans_fully_valid =
  QCheck.Test.make ~count:40 ~name:"random plans satisfy every Fig. 4 constraint"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, obj, _) ->
          let rng = Rng.create (seed + 999) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let plan = Plan.of_groups ~n:(Program.num_kernels p) groups in
          Plan.validate ~device ~meta ~exec plan = [])

let prop_local_refine_never_worsens =
  QCheck.Test.make ~count:25 ~name:"local refinement never raises the plan cost"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, _, _, obj, _) ->
          let rng = Rng.create (seed + 7) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let before = Objective.plan_cost obj groups in
          let after = Objective.plan_cost obj (Grouping.local_refine obj groups) in
          after <= before +. 1e-12)

let prop_measured_fused_positive =
  QCheck.Test.make ~count:30 ~name:"every feasible fusion simulates to a positive finite runtime"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, _, g) ->
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let r = Measure.fused ~device p f in
          Float.is_finite r.Measure.runtime_s && r.Measure.runtime_s > 0.)

let prop_projection_below_roofline_performance =
  QCheck.Test.make ~count:30
    ~name:"proposed projection never predicts above-Roofline performance"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, meta, exec, obj, g) ->
          ignore p;
          let i = Objective.inputs obj in
          let f = Fused.build ~device ~meta ~exec ~group:g in
          let proposed = Kf_model.Projection.runtime i f in
          let roofline = Kf_model.Roofline.runtime i f in
          (* Runtime bound: the proposed model is at least as pessimistic
             as Roofline (which ignores all resource pressure and uses the
             theoretical bandwidth). *)
          (not (Float.is_finite proposed)) || proposed >= roofline *. 0.999)

let prop_plan_cost_additive =
  QCheck.Test.make ~count:25 ~name:"plan cost is the sum of group costs"
    QCheck.small_int
    (fun seed ->
      match random_feasible_group seed with
      | None -> true
      | Some (p, _, _, obj, _) ->
          let rng = Rng.create (seed + 3) in
          let groups = Grouping.random_plan obj rng (Program.num_kernels p) in
          let total = Objective.plan_cost obj groups in
          let sum = List.fold_left (fun acc g -> acc +. Objective.group_cost obj g) 0. groups in
          Float.abs (total -. sum) < 1e-12)

(* Random launch composition over a partition: groups shuffled, then cut
   into packs of one to three planes.  Legality is left to the
   evaluators, so dependent planes exercise the infeasible branch. *)
let random_comps rng groups =
  let arr = Array.of_list groups in
  for i = Array.length arr - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let rec cut = function
    | [] -> []
    | gs ->
        let k = min (List.length gs) (1 + Rng.int rng 3) in
        List.filteri (fun i _ -> i < k) gs :: cut (List.filteri (fun i _ -> i >= k) gs)
  in
  cut (Array.to_list arr)

let prop_incremental_matches_full =
  QCheck.Test.make ~count:20
    ~name:"incremental plan cost is bitwise-identical to the uncached oracle sum under mutation"
    QCheck.small_int
    (fun seed ->
      let p, meta, exec = context_of_seed seed in
      let measured_runtime =
        Array.map (fun r -> r.Measure.runtime_s) (Measure.program_results ~device p)
      in
      let inputs = Inputs.make ~device ~meta ~exec ~measured_runtime in
      let obj = Objective.create inputs in
      let n = Program.num_kernels p in
      let rng = Rng.create (seed + 11) in
      let groups = ref (Grouping.random_plan obj rng n) in
      let agree = ref true in
      let same a b = if Int64.bits_of_float a <> Int64.bits_of_float b then agree := false in
      let base = ref None in
      (* Walk a random mutation sequence with the search's own operators,
         checking the cached plan and composition evaluations against the
         uncached canonical-order oracle sums bit-for-bit at every step
         (each plan evaluation diffs against the previous step's). *)
      for _ = 1 to 10 do
        let oracle = Kf_oracle.plan_sum Objective.Proposed inputs !groups in
        let pe = Objective.eval_plan obj ?base:!base !groups in
        same (Objective.plan_eval_total pe) oracle;
        same (Objective.plan_cost obj !groups) oracle;
        base := Some pe;
        let comps = random_comps rng !groups in
        let coracle = Kf_oracle.comp_sum Objective.Proposed inputs comps in
        same (Objective.plan_eval_total (Objective.eval_cplan obj comps)) coracle;
        same (Objective.cplan_cost obj comps) coracle;
        let gs = !groups in
        (match Rng.int rng 3 with
        | 0 -> (
            match List.filter (fun g -> List.length g >= 2) gs with
            | [] -> ()
            | multi ->
                groups := Grouping.dissolve gs (List.nth multi (Rng.int rng (List.length multi))))
        | 1 -> (
            match Grouping.eject obj gs (Rng.int rng n) with
            | Some gs' -> groups := gs'
            | None -> ())
        | _ -> (
            let g = List.nth gs (Rng.int rng (List.length gs)) in
            match Grouping.absorbing_merge obj gs g with
            | Some (g', rest) -> groups := g' :: rest
            | None -> ()));
        groups := Grouping.normalize !groups
      done;
      !agree)

(* The objective answers the condensation questions with linear walks
   over per-kernel adjacency; the oracle runs Kosaraju
   ([Grouping.condensation_sccs]) over plain path closures.  At the
   paper's scale (40-150 kernels) and on partitions whose condensation
   has cycles, every structural operator must return exactly the same
   groups — members and [rest] order — and the memoized kinship
   adjacency must match the recomputed one.  The walks are structural,
   so synthetic runtimes suffice. *)
let prop_condensation_walks_match_kosaraju =
  QCheck.Test.make ~count:20
    ~name:"linear condensation walks match Kosaraju at paper scale on cyclic partitions"
    (QCheck.int_bound 10_000)
    (fun seed ->
      let n = 40 + (seed mod 111) in
      let p =
        Suite.generate
          { Suite.default with Suite.kernels = n; arrays = 3 * n / 2; data_copies = n / 3; seed }
      in
      let meta = Metadata.build p in
      let exec = Exec_order.build (Datadep.build p) in
      let measured_runtime = Array.init n (fun k -> 1e-5 *. float_of_int (1 + (k mod 7))) in
      let obj = Objective.create (Inputs.make ~device ~meta ~exec ~measured_runtime) in
      let rng = Rng.create (seed + 5) in
      let dag = Exec_order.dag exec in
      (* Endpoints of paths [a ->+ b ->+ c]: grouping [a] with [c] but not
         [b] gives the condensation the cycle {a,c} ->+ b ->+ {a,c}. *)
      let kernels = List.init n Fun.id in
      let after a = List.filter (fun b -> b <> a && Kf_graph.Dag.reaches dag a b) kernels in
      let jumps =
        List.concat_map
          (fun a -> List.concat_map (fun b -> List.map (fun c -> (a, c)) (after b)) (after a))
          kernels
        |> Array.of_list
      in
      let unite gs a c =
        let ga = List.find (List.mem a) gs and gc = List.find (List.mem c) gs in
        if ga == gc then gs
        else (ga @ gc) :: List.filter (fun g -> g != ga && g != gc) gs
      in
      let with_jumps base k =
        let gs = ref base in
        for _ = 1 to k do
          let a, c = Rng.choose rng jumps in
          gs := unite !gs a c
        done;
        !gs
      in
      let buckets =
        let nb = 1 + (n / 4) in
        let b = Array.make nb [] in
        for k = n - 1 downto 0 do
          let i = Rng.int rng nb in
          b.(i) <- k :: b.(i)
        done;
        List.filter (( <> ) []) (Array.to_list b)
      in
      let singletons = List.map (fun k -> [ k ]) kernels in
      let planned = Grouping.random_plan obj rng n in
      let partitions =
        [ with_jumps singletons 1; with_jumps singletons 4; with_jumps planned 3; buckets ]
      in
      let agree = ref true in
      let same a b = if a <> b then agree := false in
      List.iter
        (fun gs ->
          same (Grouping.schedulable obj gs) (Kf_oracle.schedulable obj gs);
          same (Grouping.repair_schedule obj gs) (Kf_oracle.repair_schedule obj gs);
          let arr = Array.of_list gs in
          for _ = 1 to 4 do
            let a = Rng.choose rng arr and b = Rng.choose rng arr in
            same (Grouping.absorbing_merge obj gs a) (Kf_oracle.absorbing_merge obj gs a);
            same (Grouping.kin_adjacent_groups obj gs a) (Kf_oracle.kin_adjacent_raw obj gs a);
            if a != b then
              same (Grouping.merge_pair obj gs a b) (Kf_oracle.merge_pair obj gs a b)
          done)
        partitions;
      (* The jump partitions must really exercise the cyclic case. *)
      !agree && not (Kf_oracle.schedulable obj (List.hd partitions)))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fused_registers_dominate_members;
      prop_fused_traffic_at_most_members;
      prop_fused_flops_at_least_members;
      prop_fused_segments_cover_members;
      prop_random_plans_fully_valid;
      prop_local_refine_never_worsens;
      prop_measured_fused_positive;
      prop_projection_below_roofline_performance;
      prop_plan_cost_additive;
      prop_incremental_matches_full;
      prop_condensation_walks_match_kosaraju;
    ]
