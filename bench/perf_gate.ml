(* CI perf gate: compares a freshly produced bench report against its
   committed baseline and fails the build when a tracked path regresses.
   The gate dispatches on the report's "schema" field:

     dune exec bench/perf_gate.exe -- bench/baseline.json BENCH_pr5.json
     dune exec bench/perf_gate.exe -- bench/baseline_stream.json BENCH_pr7.json

   For "kfuse-bench-stream/1" (the streaming bench):

   - [bit_identical_domains] must hold: a fixed edit trace with fixed
     seeds yields bit-identical decisions for 1 and 4 worker domains.
   - [max_cost_ratio] must stay within the 2% plan-quality retention
     bound at every decision point.
   - [speedup_ratio] (full re-search over streamed amortized
     ms/decision, measured in one process on one machine) must not drop
     by more than 20% against the baseline — the amortized per-decision
     wall cannot silently regress.

   For "kfuse-bench-incremental/1" (long fixed-seed searches), the
   geomean and, per workload (matched by name), [measured_speedup] must
   equal the baseline exactly.  The search is deterministic, so any
   drift means the search behavior changed — if the change is
   intentional, regenerate the baseline in the same commit.

   For "kfuse-bench-scaling/2" (the parallel-scaling sweep):

   - [bit_identical_domains] must hold in the current run, and the
     island machinery's overhead at domains=1 must keep wall speedups
     >= 0.9x — both host-independent, always gated.
   - evals/s must grow (within tolerance) with the domain count, up to
     the host's core count — skipped with a notice on 1-core hosts.
   - evals/s per domain count must stay within 20% of the baseline —
     skipped with a notice when the baseline was recorded on a host
     with a different core count (wall-clock quantities do not transfer
     between hosts; regenerate the baseline on the new host instead).

   Exit status 0 when every check passes, 1 otherwise. *)

module J = Kf_obs.Json

let tolerance = 0.20

let read_json path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> J.of_string (really_input_string ic (in_channel_length ic)))

let fail_count = ref 0

let check ok fmt =
  Format.kasprintf
    (fun msg ->
      if ok then Format.printf "  ok   %s@." msg
      else begin
        incr fail_count;
        Format.printf "  FAIL %s@." msg
      end)
    fmt

let get path conv doc =
  let rec go doc = function
    | [] -> conv doc
    | k :: rest -> Option.bind (J.member k doc) (fun d -> go d rest)
  in
  go doc path

let require path conv doc =
  match get path conv doc with
  | Some v -> v
  | None ->
      Format.eprintf "perf_gate: missing or ill-typed field %s@."
        (String.concat "." path);
      exit 2

let workloads doc =
  require [ "workloads" ] J.to_list_opt doc
  |> List.map (fun w -> (require [ "name" ] J.to_string_opt w, w))

let bool_of = function J.Bool b -> Some b | _ -> None

(* The streaming bench: trace-level determinism, plan-quality retention,
   and the amortized per-decision speedup against its baseline. *)
let gate_stream ~baseline ~current =
  Format.printf "streaming:@.";
  check
    (get [ "bit_identical_domains" ] bool_of current = Some true)
    "decisions bit-identical across worker-domain counts";
  let ratio = require [ "max_cost_ratio" ] J.to_float_opt current in
  check (ratio <= 1.02) "plan quality retained (worst cost ratio %.4f <= 1.02)" ratio;
  let sp_base = require [ "speedup_ratio" ] J.to_float_opt baseline
  and sp_cur = require [ "speedup_ratio" ] J.to_float_opt current in
  check
    (sp_cur >= (1. -. tolerance) *. sp_base)
    "amortized ms/decision speedup %.2fx within %.0f%% of baseline %.2fx" sp_cur
    (100. *. tolerance) sp_base

(* The parallel-scaling bench ("kfuse-bench-scaling/2").  Two kinds of
   checks: intra-run invariants of the current report (bit-identity
   across domain counts, island-machinery overhead bound, monotone
   throughput when the host actually has cores to scale onto), and a
   cross-run throughput comparison against the baseline.  Wall-clock
   quantities are only comparable between runs made on similar hosts, so
   the cross-run check — and the core-dependent intra-run one — are
   skipped with a visible notice when the recorded [host_cores] differ;
   the host-independent invariants always gate. *)
let gate_scaling ~baseline ~current =
  let cores d = require [ "host_cores" ] J.to_int_opt d in
  let base_cores = cores baseline and cur_cores = cores current in
  Format.printf "scaling (host_cores: baseline %d, current %d):@." base_cores cur_cores;
  check
    (get [ "aggregates"; "bit_identical_domains" ] bool_of current = Some true)
    "plans, costs, histories and evaluation counts bit-identical across domain counts";
  let min_speedup =
    require [ "aggregates"; "min_wall_speedup_domains1" ] J.to_float_opt current
  in
  check (min_speedup >= 0.9)
    "island machinery overhead bounded (min wall speedup at domains=1: %.2fx >= 0.90x)"
    min_speedup;
  let throughput d =
    require [ "aggregates"; "evals_per_s_by_domains" ] J.to_list_opt d
    |> List.map (fun e ->
           (require [ "domains" ] J.to_int_opt e, require [ "evals_per_s" ] J.to_float_opt e))
  in
  let cur_tp = throughput current in
  if cur_cores >= 2 then
    (* Monotone throughput up to the host's core count: adding a worker
       domain the host can actually schedule must not lose evals/s. *)
    List.iter
      (fun ((d1, t1), (d2, t2)) ->
        if d2 <= cur_cores then
          check
            (t2 >= (1. -. tolerance) *. t1)
            "evals/s monotone vs domains (%d: %.0f -> %d: %.0f)" d1 t1 d2 t2)
      (List.combine (List.filteri (fun i _ -> i < List.length cur_tp - 1) cur_tp)
         (List.tl cur_tp))
  else
    Format.printf
      "  SKIP evals/s monotonicity vs domains: current host has %d core(s), nothing to scale onto@."
      cur_cores;
  if base_cores <> cur_cores then
    Format.printf
      "  SKIP cross-run wall/throughput comparison: baseline recorded on a %d-core host, \
       current on %d cores — wall-clock quantities are not comparable@."
      base_cores cur_cores
  else begin
    let base_tp = throughput baseline in
    List.iter
      (fun (d, t_cur) ->
        match List.assoc_opt d base_tp with
        | None -> ()
        | Some t_base ->
            check
              (t_cur >= (1. -. tolerance) *. t_base)
              "evals/s at domains=%d (%.0f) within %.0f%% of baseline (%.0f)" d t_cur
              (100. *. tolerance) t_base)
      cur_tp
  end

let gate_search ~baseline ~current =
  let gm d = require [ "geomean_measured_speedup" ] J.to_float_opt d in
  Format.printf "overall:@.";
  check
    (gm baseline = gm current)
    "geomean measured speedup unchanged (%.6f vs baseline %.6f)" (gm current)
    (gm baseline);
  let current_workloads = workloads current in
  List.iter
    (fun (name, base) ->
      Format.printf "%s:@." name;
      match List.assoc_opt name current_workloads with
      | None -> check false "workload present in current run"
      | Some cur ->
          let sp_base = require [ "measured_speedup" ] J.to_float_opt base
          and sp_cur = require [ "measured_speedup" ] J.to_float_opt cur in
          check (sp_base = sp_cur)
            "measured speedup unchanged (%.6f vs baseline %.6f)" sp_cur sp_base)
    (workloads baseline)

(* The arena/portfolio bench ("kfuse-bench-pareto/1").  The correctness
   invariants and the absolute throughput floors are host-independent
   and always gated; the cross-run speedup comparison carries the usual
   20% wall-clock tolerance. *)
let gate_pareto ~baseline ~current =
  Format.printf "pareto:@.";
  check
    (get [ "bit_identical" ] bool_of current = Some true)
    "arena search bit-identical to the legacy search";
  check
    (get [ "portfolio_unaffected" ] bool_of current = Some true)
    "portfolio leaves the primary search bit-identical";
  let single = require [ "single"; "speedup" ] J.to_float_opt current in
  check (single >= 2.0) "single-device arena speedup %.2fx >= 2.00x floor" single;
  let port = require [ "portfolio"; "speedup" ] J.to_float_opt current in
  check (port >= 4.0) "portfolio aggregate speedup %.2fx >= 4.00x floor" port;
  let alloc_legacy = require [ "alloc_per_eval"; "legacy" ] J.to_float_opt current
  and alloc_arena = require [ "alloc_per_eval"; "arena" ] J.to_float_opt current in
  check
    (alloc_arena <= 0.25 *. alloc_legacy)
    "arena minor allocation %.0f words/eval <= 25%% of legacy (%.0f)" alloc_arena
    alloc_legacy;
  let base_single = require [ "single"; "speedup" ] J.to_float_opt baseline in
  check
    (single >= (1. -. tolerance) *. base_single)
    "single-device speedup %.2fx within %.0f%% of baseline %.2fx" single
    (100. *. tolerance) base_single;
  let base_port = require [ "portfolio"; "speedup" ] J.to_float_opt baseline in
  check
    (port >= (1. -. tolerance) *. base_port)
    "portfolio speedup %.2fx within %.0f%% of baseline %.2fx" port (100. *. tolerance)
    base_port

(* The horizontal-composition bench ("kfuse-bench-horizontal/1").  The
   search is deterministic and the quantities are model projections (no
   wall clock), so the cross-run comparisons are exact equalities: any
   drift means the search or cost model changed — if intentional,
   regenerate the baseline in the same commit. *)
let gate_horizontal ~baseline ~current =
  Format.printf "horizontal:@.";
  check
    (get [ "vertical_deterministic" ] bool_of current = Some true)
    "vertical-only search deterministic run to run";
  let packs = require [ "horizontal_packs" ] J.to_int_opt current in
  check (packs >= 1) "winning plan uses horizontal composition (%d packs)" packs;
  let imp = require [ "cost_improvement" ] J.to_float_opt current in
  check (imp > 1.0) "horizontal best strictly beats vertical-only (projected %.3fx)" imp;
  let measured = require [ "measured_improvement" ] J.to_float_opt current in
  check (measured > 1.0)
    "simulator confirms the ordering (measured improvement %.3fx)" measured;
  let base_imp = require [ "cost_improvement" ] J.to_float_opt baseline in
  check (imp = base_imp)
    "projected improvement unchanged (%.6f vs baseline %.6f)" imp base_imp;
  let base_measured = require [ "measured_improvement" ] J.to_float_opt baseline in
  check (measured = base_measured)
    "measured improvement unchanged (%.6f vs baseline %.6f)" measured base_measured

(* Schema dispatch: one row per report family the gate understands.  An
   unknown schema is a hard error, not a silent fall-through — a new
   bench must land with its gate (or an explicit entry) in the same
   commit.  [bench_json]'s "kfuse-bench/1" summary has no baseline and
   no gate, so it is refused like any other unknown schema. *)
let gates =
  [
    ("kfuse-bench-incremental/1", gate_search);
    ("kfuse-bench-stream/1", gate_stream);
    ("kfuse-bench-scaling/2", gate_scaling);
    ("kfuse-bench-pareto/1", gate_pareto);
    ("kfuse-bench-horizontal/1", gate_horizontal);
  ]

let () =
  let baseline_path, current_path =
    match Sys.argv with
    | [| _; b; c |] -> (b, c)
    | _ ->
        prerr_endline "usage: perf_gate <baseline.json> <current.json>";
        exit 2
  in
  let baseline = read_json baseline_path and current = read_json current_path in
  let schema d = require [ "schema" ] J.to_string_opt d in
  if schema baseline <> schema current then begin
    Format.eprintf "perf_gate: schema mismatch (%s vs %s)@." (schema baseline)
      (schema current);
    exit 2
  end;
  (match List.assoc_opt (schema current) gates with
  | Some gate -> gate ~baseline ~current
  | None ->
      Format.eprintf "perf_gate: unknown schema %S — known: %s@." (schema current)
        (String.concat ", " (List.map fst gates));
      exit 2);
  if !fail_count > 0 then begin
    Format.printf "@.perf gate: %d check(s) failed@." !fail_count;
    exit 1
  end;
  Format.printf "@.perf gate: all checks passed@."
