(* Tests for Kf_ir: stencils, grids, arrays, kernels, programs, derived
   metadata. *)

open Kf_ir

let check = Alcotest.check

let off di dj dk = { Stencil.di; dj; dk }

(* --- Stencil --- *)

let test_stencil_constructors () =
  check Alcotest.int "point has 1" 1 (Stencil.num_points Stencil.point);
  check Alcotest.int "star5 has 5" 5 (Stencil.num_points Stencil.star5);
  check Alcotest.int "star9 has 9" 9 (Stencil.num_points Stencil.star9);
  check Alcotest.int "asym has 4" 4 (Stencil.num_points Stencil.asym_west_south);
  check Alcotest.int "star r2 has 9" 9 (Stencil.num_points (Stencil.star_radius 2));
  check Alcotest.int "box r2 has 25" 25 (Stencil.num_points (Stencil.box_radius 2))

let test_stencil_radius () =
  check Alcotest.int "point radius" 0 (Stencil.radius Stencil.point);
  check Alcotest.int "star5 radius" 1 (Stencil.radius Stencil.star5);
  check Alcotest.int "box3 radius" 3 (Stencil.radius (Stencil.box_radius 3));
  check Alcotest.int "vertical has no horizontal radius" 0
    (Stencil.radius Stencil.cross3_vertical);
  check Alcotest.int "vertical extent" 1 (Stencil.vertical_extent Stencil.cross3_vertical)

let test_stencil_dedup () =
  let s = Stencil.make [ off 0 0 0; off 0 0 0; off 1 0 0 ] in
  check Alcotest.int "duplicates removed" 2 (Stencil.num_points s)

let test_stencil_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stencil.make: empty offset list") (fun () ->
      ignore (Stencil.make []))

let test_stencil_union () =
  let u = Stencil.union Stencil.point Stencil.star5 in
  check Alcotest.bool "union of subset" true (Stencil.equal u Stencil.star5)

let prop_stencil_radius_bound =
  QCheck.Test.make ~count:200 ~name:"radius bounds every offset"
    QCheck.(list_of_size Gen.(1 -- 10) (triple (int_range (-3) 3) (int_range (-3) 3) (int_range (-1) 1)))
    (fun offs ->
      let s = Stencil.make (List.map (fun (a, b, c) -> off a b c) offs) in
      let r = Stencil.radius s in
      List.for_all (fun o -> abs o.Stencil.di <= r && abs o.Stencil.dj <= r) (Stencil.offsets s))

(* --- Grid --- *)

let test_grid_math () =
  let g = Grid.make ~nx:100 ~ny:60 ~nz:8 ~block_x:32 ~block_y:8 in
  check Alcotest.int "threads" 256 (Grid.threads_per_block g);
  (* ceil(100/32)=4, ceil(60/8)=8 *)
  check Alcotest.int "blocks" 32 (Grid.blocks g);
  check Alcotest.int "sites" 48000 (Grid.sites g);
  check Alcotest.int "halo r1" ((34 * 10) - 256) (Grid.halo_sites_per_plane g 1)

let test_grid_invalid () =
  Alcotest.check_raises "big block" (Invalid_argument "Grid.make: more than 1024 threads per block")
    (fun () -> ignore (Grid.make ~nx:10 ~ny:10 ~nz:1 ~block_x:64 ~block_y:32));
  Alcotest.check_raises "zero extent" (Invalid_argument "Grid.make: non-positive grid extent")
    (fun () -> ignore (Grid.make ~nx:0 ~ny:10 ~nz:1 ~block_x:8 ~block_y:8))

(* --- Array_info --- *)

let test_array_info () =
  let g = Grid.make ~nx:16 ~ny:16 ~nz:4 ~block_x:8 ~block_y:8 in
  let a3 = Array_info.make ~id:0 ~name:"rho" () in
  let a2 = Array_info.make ~id:1 ~name:"sfc" ~extent:Array_info.Plane2d ~elem_bytes:4 () in
  check Alcotest.int "3d sites" 1024 (Array_info.sites a3 g);
  check Alcotest.int "3d bytes" 8192 (Array_info.bytes a3 g);
  check Alcotest.int "2d sites" 256 (Array_info.sites a2 g);
  check Alcotest.int "2d bytes" 1024 (Array_info.bytes a2 g)

(* --- Kernel --- *)

let acc array mode pattern flops = { Access.array; mode; pattern; flops }

let test_kernel_validation () =
  Alcotest.check_raises "no accesses" (Invalid_argument "Kernel.make: kernel touches no arrays")
    (fun () -> ignore (Kernel.make ~id:0 ~name:"k" ~accesses:[] ()));
  Alcotest.check_raises "duplicate array"
    (Invalid_argument "Kernel.make: duplicate array reference (merge modes into one access)")
    (fun () ->
      ignore
        (Kernel.make ~id:0 ~name:"k"
           ~accesses:[ acc 0 Access.Read Stencil.point 1.; acc 0 Access.Write Stencil.point 1. ]
           ()))

let test_kernel_derived () =
  let k =
    Kernel.make ~id:0 ~name:"k"
      ~accesses:
        [
          acc 0 Access.Read Stencil.star5 2.;
          acc 1 Access.Read Stencil.point 1.;
          acc 2 Access.Write Stencil.point 0.;
        ]
      ~extra_flops_per_site:3. ()
  in
  check (Alcotest.float 1e-9) "flops/site" 6. (Kernel.flops_per_site k);
  check Alcotest.int "thread load staged" 5 (Kernel.thread_load k 0);
  check Alcotest.int "thread load point" 1 (Kernel.thread_load k 1);
  check Alcotest.int "thread load write" 1 (Kernel.thread_load k 2);
  check Alcotest.int "thread load absent" 0 (Kernel.thread_load k 9);
  check Alcotest.(list int) "staged arrays" [ 0 ] (Kernel.smem_staged_arrays k);
  check Alcotest.bool "uses smem" true (Kernel.uses_smem k);
  check Alcotest.int "max read radius" 1 (Kernel.max_read_radius k)

let test_kernel_active_threads () =
  let g = Grid.make ~nx:64 ~ny:64 ~nz:1 ~block_x:16 ~block_y:16 in
  let k =
    Kernel.make ~id:0 ~name:"k" ~accesses:[ acc 0 Access.Read Stencil.point 1. ]
      ~active_fraction:0.5 ()
  in
  check Alcotest.int "half active" 128 (Kernel.active_threads k g);
  Alcotest.check_raises "fraction 0" (Invalid_argument "Kernel.make: active_fraction out of (0,1]")
    (fun () ->
      ignore
        (Kernel.make ~id:0 ~name:"k" ~accesses:[ acc 0 Access.Read Stencil.point 1. ]
           ~active_fraction:0. ()))

(* Every comparison with NaN is false, so range checks alone admit it;
   non-finite numerics must be rejected by name, both at the parser and
   at Kernel.make. *)
let test_kernel_non_finite () =
  let text attrs flops =
    Printf.sprintf "program x\ngrid 8 8 1 blocks 8 8\narray a\nkernel k0 %s\n  read a point %s\n"
      attrs flops
  in
  let rejected ~line name t =
    match Program_io.parse t with
    | exception Program_io.Parse_error (l, _) -> check Alcotest.int (name ^ " error line") line l
    | _ -> Alcotest.fail (name ^ ": accepted")
  in
  ignore (Program_io.parse (text "active 0.5 extra 1" "2.0"));
  List.iter
    (fun v ->
      rejected ~line:4 ("kernel active " ^ v) (text ("active " ^ v) "1.0");
      rejected ~line:4 ("kernel extra " ^ v) (text ("extra " ^ v) "1.0");
      rejected ~line:5 ("access flops " ^ v) (text "" v);
      let mk ?(extra = 0.) ?(active = 1.) flops () =
        ignore
          (Kernel.make ~id:0 ~name:"k" ~accesses:[ acc 0 Access.Read Stencil.point flops ]
             ~extra_flops_per_site:extra ~active_fraction:active ())
      in
      let f = float_of_string v in
      Alcotest.check_raises ("make active " ^ v)
        (Invalid_argument "Kernel.make: active_fraction out of (0,1]") (mk ~active:f 1.);
      Alcotest.check_raises ("make extra " ^ v)
        (Invalid_argument "Kernel.make: non-finite extra flops") (mk ~extra:f 1.);
      Alcotest.check_raises ("make flops " ^ v)
        (Invalid_argument "Kernel.make: non-finite access flops") (mk f))
    [ "nan"; "inf"; "-inf" ];
  ignore (Program_io.parse "program x\ngrid 8 8 1 blocks 8 8\narray a\nkernel k0\n  read a offsets (0,0,0) 1.5\n");
  rejected ~line:5 "offsets trailing flops"
    "program x\ngrid 8 8 1 blocks 8 8\narray a\nkernel k0\n  read a offsets (0,0,0) nan\n"

(* --- Program --- *)

let tiny_program () =
  let g = Grid.make ~nx:64 ~ny:32 ~nz:4 ~block_x:16 ~block_y:8 in
  let arrays =
    [ Array_info.make ~id:0 ~name:"a" (); Array_info.make ~id:1 ~name:"b" () ]
  in
  let kernels =
    [
      Kernel.make ~id:0 ~name:"k0"
        ~accesses:[ acc 0 Access.Read Stencil.star5 1.; acc 1 Access.Write Stencil.point 0. ]
        ();
      Kernel.make ~id:1 ~name:"k1"
        ~accesses:[ acc 1 Access.Read Stencil.point 1.; acc 0 Access.ReadWrite Stencil.point 1. ]
        ();
    ]
  in
  Program.create ~name:"tiny" ~grid:g ~arrays ~kernels

let test_program_valid () =
  let p = tiny_program () in
  check Alcotest.int "kernels" 2 (Program.num_kernels p);
  check Alcotest.int "arrays" 2 (Program.num_arrays p);
  check Alcotest.(list string) "no violations" [] (Program.validate p)

let test_program_bad_ids () =
  let g = Grid.make ~nx:8 ~ny:8 ~nz:1 ~block_x:8 ~block_y:8 in
  let arrays = [ Array_info.make ~id:5 ~name:"a" () ] in
  let kernels =
    [ Kernel.make ~id:0 ~name:"k" ~accesses:[ acc 5 Access.Read Stencil.point 1. ] () ]
  in
  Alcotest.check_raises "id mismatch"
    (Invalid_argument "Program.create(bad): array a: id 5 at position 0") (fun () ->
      ignore (Program.create ~name:"bad" ~grid:g ~arrays ~kernels))

let test_program_untouched_array () =
  let g = Grid.make ~nx:8 ~ny:8 ~nz:1 ~block_x:8 ~block_y:8 in
  let arrays = [ Array_info.make ~id:0 ~name:"a" (); Array_info.make ~id:1 ~name:"ghost" () ] in
  let kernels =
    [ Kernel.make ~id:0 ~name:"k" ~accesses:[ acc 0 Access.Read Stencil.point 1. ] () ]
  in
  Alcotest.check_raises "untouched"
    (Invalid_argument "Program.create(bad): array ghost is touched by no kernel") (fun () ->
      ignore (Program.create ~name:"bad" ~grid:g ~arrays ~kernels))

(* --- Metadata --- *)

let meta_program () =
  (* k0 writes a; k1 reads a; k2 reads b only (kin to k1 via b). *)
  let g = Grid.make ~nx:64 ~ny:32 ~nz:4 ~block_x:16 ~block_y:8 in
  let arrays =
    [
      Array_info.make ~id:0 ~name:"a" ();
      Array_info.make ~id:1 ~name:"b" ();
      Array_info.make ~id:2 ~name:"c" ();
    ]
  in
  let kernels =
    [
      Kernel.make ~id:0 ~name:"k0"
        ~accesses:[ acc 0 Access.Write Stencil.point 1.; acc 2 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:1 ~name:"k1"
        ~accesses:[ acc 0 Access.Read Stencil.star5 1.; acc 1 Access.Read Stencil.point 1. ] ();
      Kernel.make ~id:2 ~name:"k2"
        ~accesses:[ acc 1 Access.Read Stencil.star5 1.; acc 2 Access.Write Stencil.point 1. ] ();
    ]
  in
  Program.create ~name:"meta" ~grid:g ~arrays ~kernels

let test_metadata_sharing () =
  let m = Metadata.build (meta_program ()) in
  check Alcotest.(list int) "sharing of a" [ 0; 1 ] (Metadata.sharing_set m 0);
  check Alcotest.(list int) "sharing of b" [ 1; 2 ] (Metadata.sharing_set m 1);
  check Alcotest.(list int) "shared arrays" [ 0; 1; 2 ] (Metadata.shared_arrays m);
  check Alcotest.bool "a shared" true (Metadata.is_shared m 0)

let test_metadata_kinship () =
  let m = Metadata.build (meta_program ()) in
  check Alcotest.int "direct kinship" 1 (Metadata.degree_of_kinship m 0 1);
  check Alcotest.int "chain kinship" 1 (Metadata.degree_of_kinship m 1 2);
  (* k0 and k2 share array c directly. *)
  check Alcotest.int "k0-k2" 1 (Metadata.degree_of_kinship m 0 2);
  check Alcotest.int "self" 0 (Metadata.degree_of_kinship m 1 1);
  check Alcotest.bool "connected group" true (Metadata.kinship_connected m [ 0; 1; 2 ])

let test_metadata_halo () =
  let p = meta_program () in
  let m = Metadata.build p in
  (* k1 reads a with star5 (radius 1): halo ring of 16x8 tile = 18*10-128 sites * 8B *)
  check Alcotest.int "halo bytes" (((18 * 10) - 128) * 8) (Metadata.halo_bytes m 1);
  check Alcotest.int "no halo for point kernel" 0 (Metadata.halo_bytes m 0)

let test_metadata_thread_load () =
  let m = Metadata.build (meta_program ()) in
  check Alcotest.int "max thread load k1" 5 (Metadata.max_thread_load m 1);
  check Alcotest.int "max thread load k0" 1 (Metadata.max_thread_load m 0)

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_stencil_radius_bound ]

let suite =
  [
    Alcotest.test_case "stencil constructors" `Quick test_stencil_constructors;
    Alcotest.test_case "stencil radius" `Quick test_stencil_radius;
    Alcotest.test_case "stencil dedup" `Quick test_stencil_dedup;
    Alcotest.test_case "stencil empty" `Quick test_stencil_empty;
    Alcotest.test_case "stencil union" `Quick test_stencil_union;
    Alcotest.test_case "grid math" `Quick test_grid_math;
    Alcotest.test_case "grid invalid" `Quick test_grid_invalid;
    Alcotest.test_case "array info" `Quick test_array_info;
    Alcotest.test_case "kernel validation" `Quick test_kernel_validation;
    Alcotest.test_case "kernel derived" `Quick test_kernel_derived;
    Alcotest.test_case "kernel active threads" `Quick test_kernel_active_threads;
    Alcotest.test_case "kernel non-finite numerics" `Quick test_kernel_non_finite;
    Alcotest.test_case "program valid" `Quick test_program_valid;
    Alcotest.test_case "program bad ids" `Quick test_program_bad_ids;
    Alcotest.test_case "program untouched array" `Quick test_program_untouched_array;
    Alcotest.test_case "metadata sharing" `Quick test_metadata_sharing;
    Alcotest.test_case "metadata kinship" `Quick test_metadata_kinship;
    Alcotest.test_case "metadata halo" `Quick test_metadata_halo;
    Alcotest.test_case "metadata thread load" `Quick test_metadata_thread_load;
  ]
  @ qsuite
