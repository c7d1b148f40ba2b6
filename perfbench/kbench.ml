(* kbench: the end-to-end benchmark with per-layer attribution.

     kbench --workload scale-les|homme|serve-stream --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds (never fewer than the
   workload's fixed operation count) from inputs derived from N, checks
   every output, prints a human-readable report and, as its last line,
   one JSON object {correct, attempted, failed, metrics}.  With
   [--trace 0] the metrics are the end-to-end ones, with [--trace 1] the
   per-layer ones from a traced run.  Exits 1 when the correctness gate,
   the determinism check or the decomposition check fails.  See
   README.md for the metric definitions. *)

open Common

let workloads = [ "scale-les"; "homme"; "serve-stream" ]

(* Per-layer metrics, reported on every workload: 0 where the workload
   does not exercise the layer. *)
let per_layer_units =
  [
    ("ir.parse_ms", "ms");
    ("graph.analyze_s", "s");
    ("sim.baseline_s", "s");
    ("sim.cycles", "count");
    ("model.arena_build_s", "s");
    ("objective.leaf_s", "s");
    ("objective.leaf_calls", "count");
    ("objective.leaf_share", "ratio");
    ("objective.evaluations", "count");
    ("objective.group_hit_rate", "ratio");
    ("objective.plan_hit_rate", "ratio");
    ("objective.alloc_per_eval", "words");
    ("struct_memo.merge.hit_rate", "ratio");
    ("struct_memo.closure.hit_rate", "ratio");
    ("struct_memo.merge.misses", "count");
    ("hgga.init_s", "s");
    ("hgga.gen_ms_p50", "ms");
    ("hgga.operator_s", "s");
    ("hgga.operator_share", "ratio");
    ("hgga.minor_words_per_gen", "words");
    ("hgga.generations", "count");
    ("pool.speedup_2d", "x");
    ("fusion.launches", "count");
    ("fusion.packs", "count");
    ("stream.diff_ms", "ms");
    ("stream.repair_ms", "ms");
    ("stream.evals_per_decision", "count");
    ("stream.reused_groups", "count");
    ("serve.admit_ms", "ms");
    ("serve.queue_ms", "ms");
    ("serve.exec_ms", "ms");
    ("serve.cached_ratio", "ratio");
    ("obs.trace_overhead", "x");
  ]

let self_layers = [ "graph"; "sim"; "model"; "objective"; "hgga"; "stream"; "serve"; "ir" ]

let usage () =
  prerr_endline
    "usage: kbench --workload scale-les|homme|serve-stream --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: w :: r -> workload := w; go r
    | "--seed" :: n :: r -> seed := int_of_string_opt n; go r
    | "--seconds" :: s :: r -> seconds := float_of_string_opt s; go r
    | "--trace" :: t :: r -> trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None); go r
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace when List.mem !workload workloads && seconds > 0. ->
      (!workload, seed, seconds, trace)
  | _ -> usage ()

let spans_file workload seed =
  Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace1-spans.json" workload seed)

let finite x = if Float.is_finite x then x else 0.

let () =
  let workload, seed, seconds, trace = parse_args () in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let search spec = if spec = "scale-les" then Search_load.scale_les else Search_load.homme in
  Printf.printf "kbench: workload %s, seed %d, %.0f s, %s\n%!" workload seed seconds
    (if trace then "traced" else "untraced");
  let metrics =
    if not trace then begin
      let gated, extra =
        match workload with
        | "serve-stream" -> Serve_stream.end_to_end ~seed ~seconds
        | w ->
            let g, e = Search_load.end_to_end (search w) ~seed ~seconds in
            (g, List.map (fun x -> (x, "")) e)
      in
      List.iter
        (fun x -> if not (Float.is_finite x.value && x.value > 0.) then problem "metric %s is %g" x.name x.value)
        gated;
      print_endline "end-to-end (gated):";
      List.iter (fun x -> print_metric x) gated;
      print_endline "end-to-end (reported):";
      List.iter (fun (x, note) -> print_metric ~note x) extra;
      gated
    end
    else begin
      Tracer.enabled := true;
      let measured =
        match workload with
        | "serve-stream" -> Serve_stream.traced ~seed ~seconds
        | w -> Search_load.traced (search w) ~seed ~seconds
      in
      List.iter (fun v -> problem "decomposition: %s" v)
        (Tracer.decomposition_violations ~complete:[ "setup"; "serve.decision"; "serve.cached" ]);
      let selfs = Tracer.layer_self_per_root () in
      let value name = match List.find_opt (fun x -> x.name = name) measured with Some x -> finite x.value | None -> 0. in
      let layers = List.map (fun (name, u) -> m name u (value name)) per_layer_units in
      let self =
        List.map
          (fun l -> m (l ^ ".self_s") "s" (finite (Option.value (List.assoc_opt l selfs) ~default:0.)))
          self_layers
      in
      Tracer.write_file (spans_file workload seed);
      print_endline "per layer (traced run; 0 = layer not exercised by this workload):";
      List.iter (fun x -> print_metric x) layers;
      print_endline "self time per set-up / operation / request (median):";
      List.iter (fun x -> print_metric x) self;
      layers @ self
    end
  in
  Printf.printf "seed %d: %d operations attempted, %d failed\n" seed !attempted !failed;
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) (List.rev !problems);
  print_endline (result_line metrics);
  exit (if correct () then 0 else 1)
