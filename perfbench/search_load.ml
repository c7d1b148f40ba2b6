(* The two search workloads, [scale-les] and [homme]: what a user of
   [kfuse search] waits for, on the paper's two weather dycores.

   [scale-les] (142 kernels, 64 arrays) is the paper's headline scale.
   Each operation is one search capped at a few generations, so its
   wall is dominated by population construction and the grouping
   operators; set-up (142 simulator baselines) is the largest here.

   [homme] (43 kernels) runs every search to the paper's stall
   criterion, so time-to-best and final cost respond to search-quality
   changes; it is cache-dense and heavily composed (packs of planes),
   so the objective caches, the structural memos and the horizontal
   path all do real work.

   Every operation goes through the public entry points:
   [Pipeline.prepare], [Pipeline.objective], [Hgga.solve] and
   [Pipeline.apply]. *)

open Common
module Pipeline = Kfuse.Pipeline
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Struct_memo = Kf_search.Struct_memo
module Plan = Kf_fusion.Plan
module Program = Kf_ir.Program
module Metadata = Kf_ir.Metadata
module Datadep = Kf_graph.Datadep
module Exec_order = Kf_graph.Exec_order
module Measure = Kf_sim.Measure
module Metrics = Kf_obs.Metrics

type spec = {
  name : string;
  build : unit -> Program.t;
  params : Hgga.params;  (** the per-operation seed is filled in *)
  min_ops : int;
      (** operations run even past [--seconds]; the deterministic
          metrics ([best_cost_ms], [measured_speedup]) use exactly these *)
}

(* The CLI's search defaults: proposed model, horizontal composition on,
   one island, two worker domains. *)
let cli_params = { Hgga.default_params with Hgga.horizontal = true; domains = Common.domains }

let scale_les =
  {
    name = "scale-les";
    build = (fun () -> Kf_workloads.Scale_les.program ());
    params = { cli_params with Hgga.max_generations = 2 };
    min_ops = 4;
  }

(* A fixed budget near the stall criterion's typical run length (about
   140 generations), with the stall rule off: run to the stall rule, a
   search's length moves with its seed by half, and the median over a
   run's searches moved by a third between seeds. *)
let homme =
  {
    name = "homme";
    build = (fun () -> Kf_workloads.Homme.program ());
    params = { cli_params with Hgga.max_generations = 150; stall_generations = 150 };
    min_ops = 8;
  }

(* The objective the CLI builds: the fault guard around every cache-miss
   evaluation; the traced run adds a clock around it. *)
let objective ~traced ctx =
  let faults = Objective.zero_faults () in
  let guard = Kf_robust.Guard.guarded faults in
  let guard = if traced then Tracer.timing_guard guard else guard in
  Pipeline.objective ~model:Objective.Proposed ~guard ~faults ctx

let identity_cost obj n = Objective.plan_cost obj (List.init n (fun i -> [ i ]))

(* --- set-up --- *)

(* (CPU seconds, wall seconds, context) *)
let setup spec =
  let c0 = cpu () and t0 = now () in
  let ctx = Pipeline.prepare ~device (spec.build ()) in
  ignore (objective ~traced:false ctx);
  (cpu () -. c0, now () -. t0, ctx)

let setup_ctx (_, _, ctx) = ctx

type attribution = {
  build_s : float;
  graph_s : float;
  sim_s : float;
  inputs_s : float;
  arena_s : float;
  cpu_s : float;  (** the whole attributed set-up *)
}

(* Simulated cycles of the baseline measurement, from the simulator's own
   counter: one extra [Measure.program_results] with [Kf_obs.Metrics] on,
   kept out of the timed set-ups (the counters cost time). *)
let sim_cycles p =
  let read () = float_of_int (Option.value (Metrics.find "sim.cycles") ~default:0) in
  Metrics.set_enabled true;
  let c0 = read () in
  ignore (Measure.program_results ~device p);
  let c = read () -. c0 in
  Metrics.set_enabled false;
  c

(* The same set-up, one public call of each layer at a time (what
   [Pipeline.prepare] and [Pipeline.objective] do inside), for the
   per-layer split.  The decomposition check holds these against the
   real set-up. *)
let attributed_setup build =
  let cpu0 = cpu () in
  Tracer.span "setup" (fun () ->
      let p, build_s = Tracer.timed "workload.build" build in
      let (meta, datadep, exec), graph_s =
        Tracer.timed "graph.analyze" (fun () ->
            let meta = Metadata.build p in
            let datadep = Datadep.build p in
            (meta, datadep, Exec_order.build datadep))
      in
      let measured, sim_s =
        Tracer.timed "sim.baseline" (fun () -> Measure.program_results ~device p)
      in
      let measured_runtime = Array.map (fun r -> r.Measure.runtime_s) measured in
      let inputs, inputs_s =
        Tracer.timed "model.inputs" (fun () ->
            Kf_model.Inputs.make ~device ~meta ~exec ~measured_runtime)
      in
      let ctx =
        {
          Pipeline.device;
          program = p;
          meta;
          datadep;
          exec;
          measured;
          inputs;
          original_runtime = Array.fold_left ( +. ) 0. measured_runtime;
        }
      in
      let _, arena_s = Tracer.timed "model.arena_build" (fun () -> objective ~traced:true ctx) in
      { build_s; graph_s; sim_s; inputs_s; arena_s; cpu_s = cpu () -. cpu0 })

(* --- one operation: a search --- *)

type op = {
  seed : int;
  wall_s : float;  (** caller-observed wall of [Hgga.solve] *)
  cpu_s : float;  (** process CPU seconds (all domains) of the same *)
  live_mb : float;  (** live heap after the search, its objective still reachable *)
  ttb_s : float;
  init_s : float;  (** solve start to the first generation's end *)
  gen_s : float list;  (** later generations' walls *)
  minor_per_gen : float;
  leaf_s : float;  (** traced only: leaf seconds summed over domains *)
  leaf_calls : int;
  result : Hgga.result;
  alloc_per_eval : float;  (** traced only, like the memo rates below *)
  merge_rate : float;
  closure_rate : float;
  merge_misses : float;
}

let memo_rate memos name =
  match List.assoc_opt name (Struct_memo.memo_stats memos) with
  | Some (h, mi) when h + mi > 0 -> (float_of_int h /. float_of_int (h + mi), float_of_int mi)
  | _ -> (0., 0.)

let run_op ~traced spec ctx ~seed ~domains =
  Tracer.span "op" (fun () ->
      let obj = Tracer.span "model.arena_build" (fun () -> objective ~traced ctx) in
      let params = { spec.params with Hgga.seed; domains } in
      let marks = ref [] in
      let minor = ref [] in
      let on_generation (p : Hgga.progress) =
        marks := (p.Hgga.p_generation, now ()) :: !marks;
        if traced then minor := (Gc.quick_stat ()).Gc.minor_words :: !minor
      in
      Tracer.leaf_reset ();
      let c0 = cpu () in
      let t0 = now () in
      let result =
        Tracer.span "hgga.solve" (fun () ->
            let r = Hgga.solve ~params ~on_generation obj in
            if traced then begin
              (* The leaf sits inside the solve; its summed time is
                 recorded as one child so the solve's self time is the
                 operator layer. *)
              let leaf, _ = Tracer.leaf_totals () in
              ignore (Tracer.record "objective.leaf" ~start_s:t0 ~stop_s:(t0 +. leaf))
            end;
            r)
      in
      let t1 = now () in
      let c1 = cpu () in
      let marks = List.rev !marks in
      let mark_time g = match List.assoc_opt g marks with Some t -> t | None -> t1 in
      (* The generation that first reached the final incumbent; an
         incumbent from the initial population is first observable at
         the end of generation 1. *)
      let best_gen =
        match List.rev result.Hgga.stats.Hgga.improvement_history with
        | (g, _) :: _ -> max 1 g
        | [] -> 1
      in
      let times = List.map snd marks in
      let rec diffs = function a :: (b :: _ as r) -> (b -. a) :: diffs r | _ -> [] in
      let minor_per_gen =
        match !minor with
        | last :: _ :: _ ->
            let first = List.nth !minor (List.length !minor - 1) in
            (last -. first) /. float_of_int (List.length !minor - 1)
        | _ -> 0.
      in
      let leaf_s, leaf_calls = if traced then Tracer.leaf_totals () else (0., 0) in
      let live_mb = live_heap_mb () in
      let memo name =
        match Objective.struct_memos obj with Some ms -> memo_rate ms name | None -> (0., 0.)
      in
      (* The objective (and its caches) is dropped here: only numbers
         outlive an operation, so the heap holds one search at a time. *)
      {
        seed;
        wall_s = t1 -. t0;
        cpu_s = c1 -. c0;
        live_mb;
        ttb_s = Float.min (t1 -. t0) (mark_time best_gen -. t0);
        init_s = (match times with t :: _ -> t -. t0 | [] -> t1 -. t0);
        gen_s = diffs times;
        minor_per_gen;
        leaf_s;
        leaf_calls;
        result;
        alloc_per_eval = Objective.alloc_per_eval obj;
        merge_rate = fst (memo "merge");
        closure_rate = fst (memo "closure");
        merge_misses = snd (memo "merge");
      })

(* Operations until [seconds] have passed and at least [min_ops] ran. *)
let run_ops ~traced spec ctx ~seeds ~seconds =
  let t_start = now () in
  let rec go acc i =
    if i >= spec.min_ops && now () -. t_start >= seconds then List.rev acc
    else begin
      if not traced then sample_host ();
      go (run_op ~traced spec ctx ~seed:(next_seed seeds) ~domains:Common.domains :: acc) (i + 1)
    end
  in
  go [] 0

(* --- correctness gate (outside every timed region) --- *)

let same_plan (a : Hgga.result) (b : Hgga.result) =
  Plan.equal a.Hgga.plan b.Hgga.plan
  && Int64.equal (Int64.bits_of_float a.Hgga.cost) (Int64.bits_of_float b.Hgga.cost)
  && a.Hgga.stats.Hgga.evaluations = b.Hgga.stats.Hgga.evaluations

(* Returns each operation's measured speedup, in order.  The semantic
   oracle runs once per distinct plan; the checks are pure, so they are
   split over two domains. *)
let gate spec (ctx : Pipeline.context) ops =
  let n = Program.num_kernels ctx.Pipeline.program in
  let identity = identity_cost (objective ~traced:false ctx) n in
  let distinct =
    List.fold_left
      (fun acc op -> if List.exists (Plan.equal op.result.Hgga.plan) acc then acc else op.result.Hgga.plan :: acc)
      [] ops
  in
  let sem_ok =
    List.combine distinct
      (par_map (fun plan -> try semantics_ok ctx.Pipeline.program plan with _ -> false) distinct)
  in
  let check op =
    let r = op.result in
    let speedup = match Pipeline.apply ctx r with o -> o.Pipeline.speedup | exception _ -> 0. in
    ( [
        ( "plan fails Plan.validate",
          Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec r.Hgga.plan = [] );
        ( Printf.sprintf "cost %g not finite or worse than identity %g" r.Hgga.cost identity,
          Float.is_finite r.Hgga.cost && r.Hgga.cost <= identity );
        (Printf.sprintf "measured speedup %g not positive" speedup, speedup > 0.);
        ( "reduced-grid semantic check fails",
          snd (List.find (fun (p, _) -> Plan.equal p r.Hgga.plan) sem_ok) );
      ],
      speedup )
  in
  List.mapi
    (fun i (op, (checks, speedup)) ->
      operation (Printf.sprintf "%s op %d (seed %d)" spec.name i op.seed) checks;
      speedup)
    (List.combine ops (par_map check ops))

(* --- the run --- *)

let setup_reps = 5

let end_to_end spec ~seed ~seconds =
  let seeds = seed_stream ~seed ~tag:1 in
  let setups = List.init setup_reps (fun _ -> sample_host (); setup spec) in
  let ctx = setup_ctx (List.hd (List.rev setups)) in
  let ops = run_ops ~traced:false spec ctx ~seeds ~seconds in
  let heap = peak_heap_mb () in
  let speedups = gate spec ctx ops in
  let first = take spec.min_ops ops in
  let walls = List.map (fun o -> o.wall_s) ops in
  let cpus = List.map (fun o -> o.cpu_s) ops in
  let ttbs = List.map (fun o -> o.ttb_s) ops in
  let q1, q3 = quartiles walls in
  let c1, c3 = quartiles cpus in
  Printf.printf "%s: %d searches (the first %d fix cost and speedup), %d set-ups\n" spec.name
    (List.length ops) (List.length first) setup_reps;
  Printf.printf "  quartiles: search_s %.4f .. %.4f, search_cpu_s %.4f .. %.4f\n" q1 q3 c1 c3;
  let gated =
    [
      setup_metric (median (List.map (fun (c, _, _) -> c) setups));
      m "search_cpu_s" "s" (median cpus);
      m "best_cost_ms" "ms" (geomean (List.map (fun o -> o.result.Hgga.cost *. 1e3) first));
      m "measured_speedup" "x" (geomean (take spec.min_ops speedups));
      m "live_heap_mb" "MB" (median (List.map (fun o -> o.live_mb) ops));
    ]
  in
  let extra =
    [
      m "search_s" "s" (median walls);
      m "time_to_best_s" "s" (median ttbs);
      m "peak_heap_mb" "MB" heap;
      m "failed_ratio" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted));
    ]
  in
  (gated, extra)

(* --- the traced run --- *)

let rate (c : Objective.cache_stats) =
  let t = c.Objective.hits + c.Objective.misses in
  if t = 0 then 0. else float_of_int c.Objective.hits /. float_of_int t

(* Pairs of real and attributed set-ups in the traced run. *)
let check_pairs = 9

let traced spec ~seed ~seconds =
  let seeds = seed_stream ~seed ~tag:1 in
  (* Set-up: the real calls and the per-layer attribution in pairs, back
     to back so both halves of a pair see the same host, in alternating
     order and each from a collected heap so neither half inherits the
     other's garbage, with the counters off in both. *)
  let pairs =
    List.init check_pairs (fun i ->
        let real () = Gc.full_major (); setup spec in
        let attributed () = Gc.full_major (); attributed_setup spec.build in
        if i mod 2 = 0 then
          let r = real () in
          (r, attributed ())
        else
          let a = attributed () in
          (real (), a))
  in
  let reals, attrs = List.split pairs in
  let ctx = setup_ctx (List.hd (List.rev reals)) in
  let med f = median (List.map f attrs) in
  (* The layers, called one at a time, must do the work of the real
     set-up: their CPU seconds over the real set-up's, the median over
     the pairs.  Other tenants now and then make a single set-up a
     quarter faster or slower; the median over back-to-back pairs
     absorbs that. *)
  let ratio = median (List.map2 (fun (c, _, _) (a : attribution) -> a.cpu_s /. c) reals attrs) in
  if Float.abs (ratio -. 1.) > 0.1 then
    problem "decomposition: set-up layers account for %.3f of the real set-up's CPU seconds (median of %d pairs)"
      ratio check_pairs;
  Metrics.set_enabled true;
  let ops = run_ops ~traced:true spec ctx ~seeds ~seconds in
  (* Determinism, the domain axis and the cost of tracing: the first
     search again, untraced and traced at two domains and traced at one,
     back to back on a warm heap (the loop's first search ran cold). *)
  let op0 = List.hd ops in
  let again ~traced ~domains = run_op ~traced spec ctx ~seed:op0.seed ~domains in
  Metrics.set_enabled false;
  let untraced = again ~traced:false ~domains:Common.domains in
  Metrics.set_enabled true;
  let two = again ~traced:true ~domains:Common.domains in
  let one = again ~traced:true ~domains:1 in
  if not (List.for_all (fun o -> same_plan op0.result o.result) [ untraced; two; one ]) then
    problem "determinism: %s seed %d differs between 1 and %d domains (plan, cost bits or evaluations)"
      spec.name op0.seed Common.domains;
  ignore (gate spec ctx ops);
  let per f = median (List.map f ops) in
  let stats o = o.result.Hgga.stats in
  let best = List.fold_left (fun a o -> if o.result.Hgga.cost < a.result.Hgga.cost then o else a) op0 ops in
  let solve = per (fun o -> o.wall_s) in
  let leaf = per (fun o -> o.leaf_s) in
  [
    m "graph.analyze_s" "s" (med (fun a -> a.graph_s));
    m "sim.baseline_s" "s" (med (fun a -> a.sim_s));
    m "sim.cycles" "count" (sim_cycles ctx.Pipeline.program);
    m "model.arena_build_s" "s" (med (fun a -> a.arena_s));
    m "objective.leaf_s" "s" leaf;
    m "objective.leaf_calls" "count" (per (fun o -> float_of_int o.leaf_calls));
    m "objective.leaf_share" "ratio" (leaf /. solve);
    m "objective.evaluations" "count" (per (fun o -> float_of_int (stats o).Hgga.evaluations));
    m "objective.group_hit_rate" "ratio" (per (fun o -> rate (stats o).Hgga.group_cache));
    m "objective.plan_hit_rate" "ratio" (per (fun o -> rate (stats o).Hgga.plan_cache));
    m "objective.alloc_per_eval" "words" (per (fun o -> o.alloc_per_eval));
    m "struct_memo.merge.hit_rate" "ratio" (per (fun o -> o.merge_rate));
    m "struct_memo.closure.hit_rate" "ratio" (per (fun o -> o.closure_rate));
    m "struct_memo.merge.misses" "count" (per (fun o -> o.merge_misses));
    m "hgga.init_s" "s" (per (fun o -> o.init_s));
    m "hgga.gen_ms_p50" "ms" (1e3 *. median (List.concat_map (fun o -> o.gen_s) ops));
    m "hgga.operator_s" "s" (solve -. leaf);
    m "hgga.operator_share" "ratio" ((solve -. leaf) /. solve);
    m "hgga.minor_words_per_gen" "words" (per (fun o -> o.minor_per_gen));
    m "hgga.generations" "count" (per (fun o -> float_of_int (stats o).Hgga.generations));
    m "pool.speedup_2d" "x" (one.wall_s /. two.wall_s);
    m "fusion.launches" "count" (float_of_int (Plan.num_units best.result.Hgga.plan));
    m "fusion.packs" "count" (float_of_int (Plan.horizontal_pack_count best.result.Hgga.plan));
    m "obs.trace_overhead" "x" (two.wall_s /. untraced.wall_s);
  ]
