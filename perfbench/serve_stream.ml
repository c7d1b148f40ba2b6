(* The [serve-stream] workload: what a client of [kfuse serve] waits for
   while its program evolves.

   An in-process daemon (default configuration) serves exactly one client
   connection in a closed loop: the next request goes out only after the
   previous one's terminal event.  The client drives one streaming
   session with a seeded edit trace over a generated Table-V suite
   program (kernels arrive, depart and are edited in place; every version
   travels as inline [.kf] text), and after every session decision sends
   a one-shot request repeating a program the daemon already answered,
   which the warm store serves without a search.

   This is the only workload where work arrives over the protocol and
   where edits invalidate warm state beside cache reads, so [Protocol],
   the [Server] queue, [Cache_store] and [Kf_search.Stream] are measured
   here and nowhere else. *)

open Common
module Server = Kf_serve.Server
module Client = Kf_serve.Client
module Program = Kf_ir.Program
module Program_io = Kf_ir.Program_io
module Kernel = Kf_ir.Kernel
module Suite = Kf_workloads.Suite
module Stream = Kf_search.Stream
module Hgga = Kf_search.Hgga
module Objective = Kf_search.Objective
module Plan = Kf_fusion.Plan
module Pipeline = Kfuse.Pipeline
module Rng = Kf_util.Rng

(* --- the edit trace --- *)

(* The trace oscillates around one fixed Table-V suite program of [pool]
   kernels: at most [max_out] of them are absent at a time, and edits
   toggle a kernel's extra work on or off.  Each step removes, re-adds or
   edits one kernel; the seed draws the steps.  Keeping every version
   near one program keeps a run's median decision latency independent of
   the seed: a random walk over arbitrary subsets, or a different
   generated program per seed, moves it by a fifth or more. *)
let pool = 24
let max_out = 3

type trace = {
  rng : Rng.t;
  mutable base : Program.t;
  mutable out : int list;  (** absent kernels *)
  mutable edited : int list;  (** kernels currently carrying extra work *)
}

let make_trace ~seed =
  {
    rng = seed_stream ~seed ~tag:2;
    base = Suite.generate { Suite.default with Suite.kernels = pool };
    out = [];
    edited = [];
  }

let current tr =
  if tr.out = [] then tr.base
  else Program.restrict tr.base (List.filter (fun k -> not (List.mem k tr.out)) (List.init pool Fun.id))

let extra_work = 16.

let step tr =
  let resident = List.filter (fun k -> not (List.mem k tr.out)) (List.init pool Fun.id) in
  let choice =
    match Rng.int tr.rng 3 with
    | 0 when tr.out <> [] -> `Add
    | 1 when List.length tr.out < max_out -> `Remove
    | _ -> `Edit
  in
  (match choice with
  | `Add ->
      let k = Rng.choose_list tr.rng tr.out in
      tr.out <- List.filter (fun k' -> k' <> k) tr.out
  | `Remove -> tr.out <- Rng.choose_list tr.rng resident :: tr.out
  | `Edit ->
      let k = Rng.choose_list tr.rng resident in
      let on = List.mem k tr.edited in
      tr.edited <- (if on then List.filter (fun k' -> k' <> k) tr.edited else k :: tr.edited);
      let delta = if on then -.extra_work else extra_work in
      tr.base <-
        Program.edit_kernel tr.base k (fun kr ->
            { kr with Kernel.extra_flops_per_site = kr.Kernel.extra_flops_per_site +. delta }));
  current tr

(* --- protocol plumbing --- *)

let json_float name j = Option.bind (Json.member name j) Json.to_float_opt
let json_str name j = Option.bind (Json.member name j) Json.to_string_opt

let json_groups j =
  match Option.bind (Json.member "groups" j) Json.to_list_opt with
  | None -> None
  | Some gs ->
      let group g =
        Option.map (List.filter_map Json.to_int_opt) (Json.to_list_opt g)
      in
      let gs = List.filter_map group gs in
      Some gs

(* One request's life as the client sees it: send, then the arrival of
   each event. *)
type reply = {
  send_s : float;
  admitted_s : float;
  started_s : float;
  done_s : float;
  cpu_s : float;  (** process CPU seconds from send to terminal: the daemon is in-process *)
  terminal : Json.t option;  (** [None]: the connection ended first *)
}

let latency r = r.done_s -. r.send_s
let is_result r = match r.terminal with Some t -> Client.event_kind t = Some "result" | None -> false

let roundtrip client ~id req =
  let c0 = cpu () in
  let send_s = now () in
  Client.send client req;
  let admitted = ref nan and started = ref nan in
  let finish done_s terminal =
    { send_s; admitted_s = !admitted; started_s = !started; done_s; cpu_s = cpu () -. c0; terminal }
  in
  let rec loop () =
    match Client.next_event client with
    | None -> finish (now ()) None
    | Some ev when Client.event_id ev <> Some id -> loop ()
    | Some ev -> (
        let t = now () in
        match Client.event_kind ev with
        | Some "admitted" -> admitted := t; loop ()
        | Some "started" -> started := t; loop ()
        | Some ("result" | "error") -> finish t (Some ev)
        | _ -> loop ())
  in
  loop ()

(* --- the daemon --- *)

(* Relative to the checkout root, which keeps the socket path short. *)
let socket_path () = Filename.concat out_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ()))

(* Requests set only the search seed: the daemon's own defaults (one
   search domain per request) apply otherwise. *)
let options ~seed = [ ("seed", Json.Int seed) ]
let session = "edits"

type daemon = {
  server : Server.t;
  client : Client.t;
  opening : reply;
  primed : (string * reply) array;  (** one-shot programs and their first answers *)
}

let shutdown d =
  Client.close d.client;
  Server.stop d.server

(* Set-up: daemon start, connect, the session-opening full search and the
   one-shot searches the warm store will answer later. *)
let start ~seed ~v0 ~primes =
  let c0 = cpu () in
  let path = socket_path () in
  let server = Server.start (Server.default ~socket_path:path) in
  let client = Client.connect_retry path in
  let opening =
    roundtrip client ~id:"open"
      (Client.request ~id:"open" ~session ~program:(Program_io.print v0) ~options:(options ~seed) ())
  in
  let primed =
    Array.mapi
      (fun i p ->
        let text = Program_io.print p in
        let id = Printf.sprintf "prime%d" i in
        (text, roundtrip client ~id (Client.request ~id ~program:text ~options:(options ~seed) ())))
      primes
  in
  (cpu () -. c0, { server; client; opening; primed })

(* --- the closed loop --- *)

type decision = { version : Program.t; text : string; reply : reply }

(* Decisions run even past [--seconds]; the deterministic metrics
   ([best_cost_ms], [measured_speedup]) use exactly these, and the
   semantic oracle checks the first [oracle_decisions] of them. *)
let min_decisions = 72
let oracle_decisions = 24

(* Live heap is sampled after every [heap_every]-th decision from
   [heap_from] on, between requests, up to [min_decisions]: the warm
   store grows with every decision, so samples past the fixed count
   would make the median follow the host's speed. *)
let heap_from = 16
let heap_every = 8

let run_loop ~traced ~seconds ~seed tr d =
  let t_start = now () in
  let decisions = ref [] and repeats = ref [] and live = ref [] in
  let i = ref 0 in
  let request_span name r ~wall =
    (* client-observed phases: send -> admitted -> started -> terminal;
       the daemon-reported decision wall sits inside execution *)
    let root = Tracer.record ~parent:(-1) name ~start_s:r.send_s ~stop_s:r.done_s in
    ignore (Tracer.record ~parent:root "serve.admit" ~start_s:r.send_s ~stop_s:r.admitted_s);
    ignore (Tracer.record ~parent:root "serve.queue" ~start_s:r.admitted_s ~stop_s:r.started_s);
    let exec = Tracer.record ~parent:root "serve.exec" ~start_s:r.started_s ~stop_s:r.done_s in
    if wall > 0. then
      ignore (Tracer.record ~parent:exec "stream.repair" ~start_s:(r.done_s -. wall) ~stop_s:r.done_s)
  in
  while !i < min_decisions || now () -. t_start < seconds do
    if (not traced) && !i mod heap_every = 0 then sample_host ();
    let version = step tr in
    let text = Program_io.print version in
    let id = Printf.sprintf "edit%d" !i in
    let reply =
      roundtrip d.client ~id
        (Client.request ~id ~session ~program:text ~options:(options ~seed) ())
    in
    decisions := { version; text; reply } :: !decisions;
    let k = !i mod Array.length d.primed in
    let id = Printf.sprintf "repeat%d" !i in
    let r =
      roundtrip d.client ~id
        (Client.request ~id ~program:(fst d.primed.(k)) ~options:(options ~seed) ())
    in
    repeats := (k, r) :: !repeats;
    if !i >= heap_from && !i < min_decisions && (!i - heap_from) mod heap_every = 0 then
      live := live_heap_mb () :: !live;
    if traced then begin
      let wall = Option.value (Option.bind reply.terminal (json_float "wall_s")) ~default:0. in
      request_span "serve.decision" reply ~wall;
      request_span "serve.cached" r ~wall:0.
    end;
    incr i
  done;
  (List.rev !decisions, List.rev !repeats, median !live)

(* --- correctness gate (after the loop) --- *)

let same_answer a b =
  match (a.terminal, b.terminal) with
  | Some x, Some y ->
      json_groups x = json_groups y
      && Option.map Int64.bits_of_float (json_float "cost" x)
         = Option.map Int64.bits_of_float (json_float "cost" y)
  | _ -> false

(* A one-shot [Hgga.result] carrying a decision's plan, for
   [Pipeline.apply]. *)
let as_result n groups cost =
  let zero = { Objective.hits = 0; misses = 0; evictions = 0; size = 0 } in
  {
    Hgga.groups;
    plan = Plan.of_groups ~n groups;
    cost;
    stats =
      {
        Hgga.generations = 0;
        evaluations = 0;
        wall_time_s = 0.;
        best_cost = cost;
        improvement_history = [];
        stop = Hgga.Converged;
        faults = Objective.zero_faults ();
        group_cache = zero;
        plan_cache = zero;
      };
  }

type checked = { cost : float; speedup : float; plan : Plan.t option }

(* Checks one session decision against a fresh preparation of its
   program version: (failed checks, cost, measured speedup, plan).
   Pure, so decisions are checked in parallel.  The semantic oracle
   (about half a second a plan) covers the fixed first
   [oracle_decisions]: checking every decision would cost more than the
   loop it checks. *)
let check_decision (index, (dc : decision)) =
  let terminal = dc.reply.terminal in
  let groups = Option.bind terminal json_groups in
  let cost = Option.value (Option.bind terminal (json_float "cost")) ~default:nan in
  let n = Program.num_kernels dc.version in
  match groups with
  | Some groups when is_result dc.reply -> (
      match
        let ctx = Pipeline.prepare ~device dc.version in
        let obj = Pipeline.objective ctx in
        let plan = Plan.of_groups ~n groups in
        let identity = Objective.plan_cost obj (List.init n (fun i -> [ i ])) in
        let recomputed = Objective.plan_cost obj groups in
        let speedup = (Pipeline.apply ctx (as_result n groups cost)).Pipeline.speedup in
        (ctx, plan, identity, recomputed, speedup)
      with
      | exception e -> ([ ("raised " ^ Printexc.to_string e, false) ], { cost; speedup = 0.; plan = None })
      | ctx, plan, identity, recomputed, speedup ->
          ( [
              ( "plan fails Plan.validate",
                Plan.validate ~device ~meta:ctx.Pipeline.meta ~exec:ctx.Pipeline.exec plan = [] );
              ( Printf.sprintf "cost %g not finite or worse than identity %g" cost identity,
                Float.is_finite cost && cost <= identity );
              ( Printf.sprintf "reported cost %h differs from a fresh objective's %h" cost recomputed,
                Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float recomputed) );
              (Printf.sprintf "measured speedup %g not positive" speedup, speedup > 0.);
              ( "reduced-grid semantic check fails",
                index >= oracle_decisions || (try semantics_ok dc.version plan with _ -> false) );
            ],
            { cost; speedup; plan = Some plan } ))
  | _ -> ([ ("did not end in a result event", false) ], { cost; speedup = 0.; plan = None })

let gate_decisions decisions =
  List.mapi
    (fun i (checks, out) ->
      operation (Printf.sprintf "serve-stream decision %d" i) checks;
      out)
    (par_map check_decision (List.mapi (fun i dc -> (i, dc)) decisions))

let gate_repeat d (k, r) =
  let first = snd d.primed.(k) in
  operation
    (Printf.sprintf "serve-stream repeat of program %d" k)
    [
      ("did not end in a result event", is_result r);
      ( "not answered from the warm store",
        Option.bind r.terminal (json_str "stop") = Some "cached" );
      ("differs from the first answer", same_answer r first);
    ]

let gate_setup d =
  operation "serve-stream session opening" [ ("did not end in a result event", is_result d.opening) ];
  Array.iteri
    (fun i (_, r) ->
      operation
        (Printf.sprintf "serve-stream priming %d" i)
        [ ("did not end in a result event", is_result r) ])
    d.primed

(* --- the run --- *)

let setup_reps = 5

(* [setup_reps] full set-ups, each with its own search seed; all but the
   last daemon are shut down, and the last one's seed stays in use. *)
let setups ~seed =
  let seeds = seed_stream ~seed ~tag:3 in
  let rec go acc k =
    let hseed = next_seed seeds in
    let tr = make_trace ~seed in
    let v0 = current tr in
    let primes = [| v0; Program.restrict v0 (List.init (pool - max_out) Fun.id) |] in
    sample_host ();
    let s, d = start ~seed:hseed ~v0 ~primes in
    gate_setup d;
    if k = 1 then (List.rev (s :: acc), tr, d, hseed)
    else begin
      shutdown d;
      go (s :: acc) (k - 1)
    end
  in
  go [] setup_reps

let ms x = 1e3 *. x

let run ~traced ~seed ~seconds =
  let setup_s, tr, d, hseed = setups ~seed in
  let decisions, repeats, live =
    Fun.protect ~finally:(fun () -> shutdown d) (fun () -> run_loop ~traced ~seconds ~seed:hseed tr d)
  in
  let heap = (peak_heap_mb (), live) in
  let checked = gate_decisions decisions in
  List.iter (gate_repeat d) repeats;
  let first = take min_decisions checked in
  let edit = List.map (fun dc -> latency dc.reply) decisions in
  let edit_cpu = List.map (fun dc -> dc.reply.cpu_s) decisions in
  let cached = List.map (fun (_, r) -> latency r) repeats in
  (setup_s, decisions, repeats, checked, first, edit, edit_cpu, cached, heap)

let end_to_end ~seed ~seconds =
  let setup_s, decisions, repeats, _, first, edit, edit_cpu, cached, heap =
    run ~traced:false ~seed ~seconds
  in
  let q1, q3 = quartiles (List.map ms edit) in
  let c1, c3 = quartiles edit_cpu in
  Printf.printf "serve-stream: %d session decisions, %d warm repeats, %d set-ups (closed loop, 1 client)\n"
    (List.length decisions) (List.length repeats) setup_reps;
  Printf.printf "  quartiles: edit latency %.3f .. %.3f ms, search_cpu_s %.4f .. %.4f\n" q1 q3 c1 c3;
  let gated =
    [
      setup_metric (median setup_s);
      m "search_cpu_s" "s" (median edit_cpu);
      m "best_cost_ms" "ms" (geomean (List.map (fun c -> ms c.cost) first));
      m "measured_speedup" "x" (geomean (List.map (fun c -> c.speedup) first));
      m "live_heap_mb" "MB" (snd heap);
    ]
  in
  let tail_metric, tail_note =
    match tail (List.map ms edit) with
    | Some (p, v) -> (v, Printf.sprintf "p%g of %d decisions" p (List.length edit))
    | None -> (nan, "fewer than 20 decisions")
  in
  let extra =
    [
      (m "edit_p50_ms" "ms" (median (List.map ms edit)), "");
      (m "peak_heap_mb" "MB" (fst heap), "");
      (m "edit_tail_ms" "ms" tail_metric, tail_note);
      (m "cached_p50_ms" "ms" (median (List.map ms cached)), "");
      (m "failed_ratio" "ratio" (float_of_int !failed /. float_of_int (max 1 !attempted)), "");
    ]
  in
  (gated, extra)

let traced ~seed ~seconds =
  let _, decisions, repeats, checked, _, _, _, _, _ = run ~traced:true ~seed ~seconds in
  let field name dc = Option.value (Option.bind dc.reply.terminal (json_float name)) ~default:nan in
  (* the serve phases of session decisions (warm-store repeats are the
     [cached_p50_ms] path) *)
  let spans = Tracer.all () in
  let decision_roots =
    List.filter_map (fun s -> if s.Tracer.name = "serve.decision" then Some s.Tracer.id else None) spans
  in
  let med_span name =
    median
      (List.filter_map
         (fun s ->
           if s.Tracer.name = name && List.mem s.Tracer.parent decision_roots then Some (Tracer.duration s)
           else None)
         spans)
  in
  (* Per-version layer costs the daemon pays inside each decision, timed
     here on the same inputs, one public call at a time. *)
  let versions = List.map (fun dc -> dc.version) decisions in
  let parse_s = List.map (fun dc -> snd (Tracer.timed "ir.parse" (fun () -> Program_io.parse dc.text))) decisions in
  let rec pairs = function a :: (b :: _ as r) -> (a, b) :: pairs r | _ -> [] in
  let diff_s = List.map (fun (a, b) -> snd (Tracer.timed "stream.diff" (fun () -> Stream.diff a b))) (pairs versions) in
  let sample = take 20 versions in
  let attr = List.map (fun p -> Search_load.attributed_setup (fun () -> p)) sample in
  let plans = List.filter_map (fun c -> c.plan) checked in
  let per f xs = median (List.map f xs) in
  [
    m "ir.parse_ms" "ms" (ms (median parse_s));
    m "graph.analyze_s" "s" (per (fun a -> a.Search_load.graph_s) attr);
    m "sim.baseline_s" "s" (per (fun a -> a.Search_load.sim_s) attr);
    m "sim.cycles" "count" (per Search_load.sim_cycles sample);
    m "model.arena_build_s" "s" (per (fun a -> a.Search_load.arena_s) attr);
    m "fusion.launches" "count" (per (fun p -> float_of_int (Plan.num_units p)) plans);
    m "fusion.packs" "count" (per (fun p -> float_of_int (Plan.horizontal_pack_count p)) plans);
    m "stream.diff_ms" "ms" (ms (median diff_s));
    m "stream.repair_ms" "ms" (ms (per (field "wall_s") decisions));
    m "stream.evals_per_decision" "count" (per (field "evaluations") decisions);
    m "stream.reused_groups" "count" (per (field "reused_groups") decisions);
    m "serve.admit_ms" "ms" (ms (med_span "serve.admit"));
    m "serve.queue_ms" "ms" (ms (med_span "serve.queue"));
    m "serve.exec_ms" "ms" (ms (med_span "serve.exec"));
    m "serve.cached_ratio" "ratio"
      (let c =
         List.filter (fun (_, r) -> Option.bind r.terminal (json_str "stop") = Some "cached") repeats
       in
       float_of_int (List.length c) /. float_of_int (max 1 (List.length repeats)));
  ]
