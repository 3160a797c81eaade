(* run: the run-time cost of chains (the paper's Figure 5).  Every runnable
   registry program (fact, base64 and the ten CLBG programs at their default
   sizes) is rewritten in set-up under five configs of
   Serve.Oneshot.config_matrix (see Common.stratified), with fixed rewrite
   seeds; the timed loop only loads and executes the 60 images on the fast
   engine, a repetition of about three seconds on a 2-core box.  A run
   repeats them at least three times, each repetition in a fresh order
   drawn from the seed (see Wl_protect).
   The images do not depend on the seed: with seed-drawn rewrite seeds
   the retired steps, and with them the latency percentiles, moved by up
   to 25% between seeds. *)

open Common

type prog = {
  p_name : string;
  p_func : string;
  p_arg : int64;
  p_expect : int64;                 (* Minic.Interp on the source AST *)
  p_native_steps : int;
  p_images : (string * Image.t * float) array;
      (* config name, rewritten image, serialized size / native size *)
}

(* The source AST of a runnable registry entry: the independent reference
   the rewritten runs are checked against. *)
let source name =
  if name = "fact" then Serve.Oneshot.fact_program ()
  else if name = "base64" then Minic.Programs.base64_program ()
  else
    match List.find_opt (fun (n, _, _, _) -> n = name) Minic.Clbg.all with
    | Some (_, prog, _, _) -> prog
    | None -> failwith ("no source for " ^ name)

let fuel = 1_000_000_000

let runnable () =
  List.filter_map
    (fun (e : Serve.Oneshot.entry) ->
       Option.map (fun (f, arg) -> (e, f, arg)) e.Serve.Oneshot.e_run)
    (Serve.Oneshot.registry ())

(* Compile and prepare every runnable program and rewrite it under its
   drawn (config, rewrite seed) pairs. *)
let build ~draw () =
  List.map
    (fun ((e : Serve.Oneshot.entry), func, arg) ->
       let op = e.Serve.Oneshot.e_name in
       let img = layer_call "minic.compile" ~op e.Serve.Oneshot.e_build in
       let ctx =
         layer_call "gadget.prepare" ~op (fun () ->
             Ropc.Rewriter.prepare img ~functions:e.Serve.Oneshot.e_funcs)
       in
       let native_bytes = float_of_int (String.length (Image.serialize img)) in
       let images =
         Array.of_list
           (List.filter_map
              (fun (n, name, rseed) -> if n = op then Some (name, rseed) else None)
              draw)
         |> Array.map (fun (name, rseed) ->
              let config =
                match Serve.Oneshot.config_of_name ~seed:rseed name with
                | Ok c -> c
                | Error m -> failwith m
              in
              let r =
                layer_call "core.rewrite" ~op:(op ^ "/" ^ name) (fun () ->
                    Ropc.Rewriter.rewrite_with ctx ~config)
              in
              let img' = r.Ropc.Rewriter.image in
              (name, img',
               float_of_int (String.length (Image.serialize img')) /. native_bytes))
       in
       (e.Serve.Oneshot.e_name, func, arg, img, images))
    (runnable ())

type acc = {
  mutable steps : int;
  mutable exec_s : float;
  mutable execs : int;
  mutable dispatches : int;
  mutable dm_misses : int;
  mutable translated : int;
  mutable fused : int;
  mutable flushes : int;
}

let acc () =
  { steps = 0; exec_s = 0.0; execs = 0; dispatches = 0;
    dm_misses = 0; translated = 0; fused = 0; flushes = 0 }

(* Load and run one image; returns the wall time and the retired steps. *)
let execute chk a p (cname, img, _) =
  let op = Printf.sprintf "%s/%s" p.p_name cname in
  attempt chk;
  let t0 = now () in
  let t =
    layer_call "image.load" ~op (fun () ->
        Runner.setup img ~func:p.p_func ~args:[ p.p_arg ])
  in
  let t1 = now () in
  let status = layer_call "machine.run" ~op (fun () -> Machine.Exec.run ~fuel t) in
  let t2 = now () in
  let cpu = t.Machine.Exec.cpu in
  let steps = cpu.Machine.Cpu.steps in
  a.steps <- a.steps + steps;
  a.execs <- a.execs + 1;
  a.exec_s <- a.exec_s +. (t2 -. t1);
  a.dispatches <- a.dispatches + t.Machine.Exec.n_dispatches;
  a.dm_misses <- a.dm_misses + t.Machine.Exec.n_dm_misses;
  a.translated <- a.translated + t.Machine.Exec.n_translated;
  a.fused <- a.fused + t.Machine.Exec.n_fused;
  a.flushes <- a.flushes + t.Machine.Exec.n_flushes;
  let rax = Machine.Cpu.get cpu X86.Isa.RAX in
  (match status with
   | Machine.Exec.Halted when rax = p.p_expect -> ()
   | Machine.Exec.Halted ->
     fail chk
       (Printf.sprintf "%s: returned %Ld, reference %Ld" op rax p.p_expect)
   | st -> fail chk (Format.asprintf "%s: %a" op Machine.Exec.pp_exit st));
  (t2 -. t0, steps)

let run ~seed ~seconds ~traced : outcome =
  let rng = Util.Rng.create (0x7255 + seed) in
  let draw =
    List.map snd (stratified (List.map (fun (e, _, _) -> e.Serve.Oneshot.e_name) (runnable ())))
  in
  let built = setup ~traced (build ~draw) in
  let chk = checks () in
  (* references, outside the timed section: the interpreter on the source
     AST, and the native image, which must agree with it *)
  let progs =
    Array.of_list
      (List.map
         (fun (name, func, arg, native, images) ->
            let expect = Minic.Interp.run (source name) func [ arg ] in
            let nat = Runner.call ~fuel native ~func ~args:[ arg ] in
            attempt chk;
            if nat.Runner.status <> Machine.Exec.Halted || nat.Runner.rax <> expect
            then
              fail chk
                (Printf.sprintf "%s: native returned %Ld, reference %Ld" name
                   nat.Runner.rax expect);
            { p_name = name; p_func = func; p_arg = arg; p_expect = expect;
              p_native_steps = nat.Runner.steps; p_images = images })
         built)
  in
  let a = acc () in
  let b = times () in
  let execs =
    List.mapi (fun i x -> (i, x))
      (List.concat_map
         (fun p -> List.map (fun im -> (p, im)) (Array.to_list p.p_images))
         (Array.to_list progs))
  in
  (* The first executions in a process run faster than the steady state
     (the major heap is still small), so every program runs once untimed
     first. *)
  Array.iter (fun p -> ignore (execute chk a p p.p_images.(0))) progs;
  let measure = measure ~traced in
  let nreps =
    run_reps ~seconds ~setups:1 (fun () ->
        List.iter
          (fun (i, (p, im)) ->
             let dt, steps = measure (fun () -> execute chk a p im) in
             record b i ~work:(float_of_int steps) dt)
          (Util.Rng.shuffle rng execs))
  in
  (* retired steps are deterministic: the work recorded for each image *)
  let overheads =
    List.map
      (fun (i, (p, _)) -> snd (Hashtbl.find b.b_ops i) /. float_of_int p.p_native_steps)
      execs
  in
  let n = b.b_samples in
  let f = float_of_int in
  let sizes =
    Array.to_list progs
    |> List.concat_map (fun p -> List.map (fun (_, _, s) -> s) (Array.to_list p.p_images))
  in
  { attempted = chk.c_attempted;
    failed = chk.c_failed;
    failures = List.rev chk.c_msgs;
    e2e =
      (setup_metric () :: time_metrics b)
      @ [ ("peak_heap_mb", !heap_after_first_rep, 1);
          ("image_size_x", geomean sizes, List.length sizes) ];
    layers =
      (if not traced then []
       else
         let per_exec x = ratio (f x) (f a.execs) in
         program_layers ()
         @ [ ("image.load_ms", layer_ms "image.load");
           ("machine.run_ms", layer_ms "machine.run");
           ("machine.ns_per_step", 1e9 *. ratio a.exec_s (f a.steps));
           ("machine.steps", per_exec a.steps);
           ("machine.dispatches", per_exec a.dispatches);
           ("machine.dm_hit_ratio", ratio (f (a.dispatches - a.dm_misses)) (f a.dispatches));
           ("machine.blocks_translated", per_exec a.translated);
           ("machine.fused_ratio", ratio (f a.fused) (f a.steps));
           ("machine.cache_flushes", f a.flushes);
           ("machine.overhead_x", geomean overheads) ]
         @ gc_layers ());
    notes =
      [ Printf.sprintf "run: %d repetitions, %d executions, steps overhead %.1fx (geomean)"
          nreps n (geomean overheads) ] }
