type t = {
  id : int;
  name : string;
  accesses : Access.t list;
  extra_flops_per_site : float;
  registers_per_thread : int;
  addr_registers : int;
  active_fraction : float;
}

let make ~id ~name ~accesses ?(extra_flops_per_site = 0.) ?(registers_per_thread = 32)
    ?(addr_registers = 6) ?(active_fraction = 1.0) () =
  if accesses = [] then invalid_arg "Kernel.make: kernel touches no arrays";
  let ids = List.map (fun (a : Access.t) -> a.array) accesses in
  if List.length (List.sort_uniq compare ids) <> List.length ids then
    invalid_arg "Kernel.make: duplicate array reference (merge modes into one access)";
  (* Every comparison with NaN is false, so finiteness is checked
     explicitly before the range checks. *)
  if not (Float.is_finite extra_flops_per_site) then
    invalid_arg "Kernel.make: non-finite extra flops";
  if extra_flops_per_site < 0. then invalid_arg "Kernel.make: negative extra flops";
  if List.exists (fun (a : Access.t) -> not (Float.is_finite a.flops)) accesses then
    invalid_arg "Kernel.make: non-finite access flops";
  if List.exists (fun (a : Access.t) -> a.flops < 0.) accesses then
    invalid_arg "Kernel.make: negative access flops";
  if registers_per_thread <= 0 || addr_registers < 0 then
    invalid_arg "Kernel.make: bad register counts";
  if not (active_fraction > 0. && active_fraction <= 1.0) then
    invalid_arg "Kernel.make: active_fraction out of (0,1]";
  {
    id;
    name;
    accesses;
    extra_flops_per_site;
    registers_per_thread;
    addr_registers;
    active_fraction;
  }

let flops_per_site t =
  List.fold_left (fun acc (a : Access.t) -> acc +. a.flops) t.extra_flops_per_site t.accesses

let total_flops t g = flops_per_site t *. float_of_int (Grid.sites g)

let reads t = List.filter Access.reads t.accesses
let writes t = List.filter Access.writes t.accesses

let touches t id = List.exists (fun (a : Access.t) -> a.array = id) t.accesses

let access_for t id = List.find_opt (fun (a : Access.t) -> a.array = id) t.accesses

let arrays t = List.map (fun (a : Access.t) -> a.array) t.accesses

let thread_load t id =
  match access_for t id with
  | None -> 0
  | Some a -> if Access.reads a then Stencil.num_points a.pattern else 1

let max_read_radius t =
  List.fold_left (fun acc (a : Access.t) -> max acc (Stencil.radius a.pattern)) 0 (reads t)

let smem_staged_arrays t =
  List.filter_map
    (fun (a : Access.t) ->
      if Access.reads a && Stencil.num_points a.pattern > 1 then Some a.array else None)
    t.accesses

let uses_smem t = smem_staged_arrays t <> []

let active_threads t g =
  int_of_float (Float.ceil (t.active_fraction *. float_of_int (Grid.threads_per_block g)))

let pp ppf t =
  Format.fprintf ppf "@[<h>K%d(%s): %a, %.1f flops/site, %d regs@]" t.id t.name
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ") Access.pp)
    t.accesses (flops_per_site t) t.registers_per_thread
