(* Shared pieces of the benchmark: the device and load shape every
   workload uses, the failure ledger behind [failed_ratio], summary
   statistics and the result line. *)

module Json = Kf_obs.Json
module Stats = Kf_util.Stats

let device = Kf_gpu.Device.k20x
let now = Unix.gettimeofday

(* Run outputs (spans, the daemon's socket), relative to the checkout
   root and ignored by git. *)
let out_dir = Filename.concat "perfbench" "_out"

(* Load shape: at most [nproc] = 2 busy worker domains. *)
let domains = 2

(* --- seeds --- *)

(* Every seed a workload uses is drawn from one generator split off the
   workload seed, so a run is reproducible from [--seed] alone. *)
let seed_stream ~seed ~tag = Kf_util.Rng.create ((seed * 1_000_003) + tag)
let next_seed rng = 1 + Kf_util.Rng.int rng 1_000_000_000

(* --- correctness ledger --- *)

let attempted = ref 0
let failed = ref 0

(* Gate failures that are not operations (determinism, decomposition):
   they make the run incorrect without counting as failed operations. *)
let problems : string list ref = ref []

let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* One operation: [checks] lists (what, passed); it fails if any check
   did.  Every failing check is reported. *)
let operation label checks =
  incr attempted;
  let bad = List.filter (fun (_, ok) -> not ok) checks in
  if bad <> [] then begin
    incr failed;
    List.iter (fun (what, _) -> problem "%s: %s" label what) bad
  end

let correct () = !failed = 0 && !problems = []

(* --- statistics --- *)

let arr = Array.of_list
let median xs = Stats.median (arr xs)

(* Quartiles with Python's [statistics.quantiles(xs, n=4)] (exclusive)
   method, so the report reads the same way the acceptance check does. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = float_of_int ((i * (n + 1)) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 3)

let geomean xs = match Stats.geomean_opt (arr xs) with Some g -> g | None -> nan

(* The highest percentile of a fixed ladder with at least ten samples
   beyond it: (percentile, value), or [None] below 20 samples. *)
let tail xs =
  let n = List.length xs in
  let a = arr xs in
  List.fold_left
    (fun acc p ->
      let beyond = float_of_int n *. (100. -. p) /. 100. in
      if beyond >= 10. then Some (p, Stats.percentile a p) else acc)
    None [ 50.; 75.; 90.; 95.; 99.; 99.9 ]

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* The major heap's high-water mark over the whole process. *)
let peak_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* Live major-heap data now (after the full major collection [Gc.stat]
   runs): what an operation retains, independent of collector pacing,
   which moves the high-water mark by a fifth between runs. *)
let live_heap_mb () = mb_of_words (Gc.stat ()).Gc.live_words

(* --- metrics --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Human-readable report line, one per metric. *)
let print_metric ?(note = "") x =
  Printf.printf "  %-32s %14.6g %-6s%s\n" x.name x.value x.unit_
    (if note = "" then "" else "  " ^ note)

let result_line metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (correct ()));
         ("attempted", Json.Int (max 1 !attempted));
         ("failed", Json.Int !failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]))
                metrics) );
       ])

(* --- the semantic oracle --- *)

(* Original and fused execution agree on a reduced-grid copy of the
   program (same block shape, so the same plan stays legal), under the
   same plan.  A full-grid check is far too slow at paper scale. *)
let semantics_ok program plan =
  let g = program.Kf_ir.Program.grid in
  let small =
    Kf_ir.Program.with_grid program
      (Kf_ir.Grid.make ~nx:(2 * g.Kf_ir.Grid.block_x) ~ny:(2 * g.Kf_ir.Grid.block_y)
         ~nz:(min 2 g.Kf_ir.Grid.nz) ~block_x:g.Kf_ir.Grid.block_x ~block_y:g.Kf_ir.Grid.block_y)
  in
  let meta = Kf_ir.Metadata.build small in
  let exec = Kf_graph.Exec_order.build (Kf_graph.Datadep.build small) in
  let fp = Kf_fusion.Fused_program.build ~device ~meta ~exec plan in
  (Kf_exec.Semantics.check ~device fp).Kf_exec.Semantics.equivalent

(* The correctness gate runs after the timed region; it splits its
   independent checks over the load shape's two domains. *)
let par_map f xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  let half = n / 2 in
  let other = Domain.spawn (fun () -> Array.map f (Array.sub a half (n - half))) in
  let mine = Array.map f (Array.sub a 0 half) in
  Array.to_list (Array.append mine (Domain.join other))

(* Process CPU seconds, all domains (getrusage: user + system).  The
   gated time metrics use it: on a shared host the wall clock also
   carries steal time from other tenants. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host speed --- *)

(* CPU time is free of steal but not of the host's speed: for minutes at
   a time other tenants leave this process's vCPUs whole cores or share
   them, and the same set-up or search then takes a third less or more
   CPU time.  A fixed computation of the benchmark's own (short-lived
   allocation, hashing and table probes, like the search's hot path),
   timed on the main domain between operations, reads that speed; it
   promotes next to nothing to the major heap, so the program's live
   heap does not change its cost.  It runs on one domain, like the
   set-up: [setup_s] is divided by the run's median reference time over
   [reference_nominal_s], so it reads as CPU seconds at the speed where
   the reference takes that long.  The two-domain searches are not
   divided: their CPU time did not follow this reference (divided, a
   set's spread grew from 0.15 to 0.31), and a two-domain reference
   read anywhere from 0.08 to 0.19 CPU s, since each minor collection
   is a barrier at which a domain whose vCPU was taken away keeps the
   other spinning. *)
let reference_nominal_s = 0.12

let reference_work () =
  let table = Array.make 16384 0 in
  let acc = ref 0 in
  for i = 0 to 800_000 do
    let key = List.init 8 (fun j -> ((i * 31) + (j * 7)) land 65535) in
    let k = Hashtbl.hash key land 16383 in
    acc := !acc + table.(k);
    table.(k) <- List.fold_left ( + ) (i land 255) key
  done;
  !acc

let host_samples : float list ref = ref []

(* Times the reference once; call it between operations only, never
   while a worker is busy. *)
let sample_host () =
  let c0 = cpu () in
  ignore (Sys.opaque_identity (reference_work ()));
  host_samples := (cpu () -. c0) :: !host_samples

(* How much slower than nominal the host ran during this run. *)
let host_factor () = median !host_samples /. reference_nominal_s

(* [setup_s] at nominal speed; the report also prints it as measured. *)
let setup_metric measured =
  let f = host_factor () in
  Printf.printf "  host speed: reference %.4f s (median of %d), nominal %.4f s, factor %.4f; setup_s as measured %.4f\n"
    (median !host_samples) (List.length !host_samples) reference_nominal_s f measured;
  m "setup_s" "s" (measured /. f)
