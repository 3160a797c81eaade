(* attack: the robustness side of the paper (Tables II/IV).  Fixed attack
   cells on Campaign-style RandomFuns targets: one target per Table IV
   control structure from Campaign.Grid.mk_target, budgets from
   Campaign.Grid.budget_of_evals.  Each target is protected under NATIVE,
   ROP_0.25, ROP_0.50+OC+IH and 2VM in set-up; a repetition runs DSE, SE,
   TDS, ROPMEMU (two traces) and, on ROP configs, ROPDissector against
   each, 90 cells in about 2.5 s on a 2-core box.

   Attack cost is heavy-tailed -- one DSE cell on ROP_1.00 at the 4k budget
   took 33 s, ROPMEMU at its default 200 traces 10-64 s -- so the protected
   targets get a budget small enough that no cell costs more than a few
   hundred ms.  The native targets get the 1k budget, under which DSE and
   SE find their secrets in a few ms, so every repetition re-validates
   found secrets. *)

open Common
module E = Symex.Engine

let config_names = [ "NATIVE"; "ROP_0.25"; "ROP_0.50+OC+IH"; "2VM" ]

let budget_for config =
  if config = "NATIVE" then Campaign.Grid.budget_of_evals "1k" 1000
  else Campaign.Grid.budget_of_evals "0.02k" 20

let tds_fuel = 15_000
let memu_config =
  { Ropaware.Ropmemu.default_config with
    Ropaware.Ropmemu.max_traces = 2; fuel = 200_000 }

type protected = {
  pr_config : string;
  pr_img : Image.t;
  pr_chain : (int64 * int) option;   (* ROP configs: chain address, length *)
  pr_size_x : float;                 (* serialized bytes / native bytes *)
}

type target = {
  tg_spec : Campaign.Grid.target_spec;
  tg_native : Image.t;
  tg_protected : protected list;
}

(* Protect one target under [config_names], with the configs' own seeds as
   Harness.Configs.apply uses them.  ROP configs go through the rewriter
   directly (ROPDissector needs the chain's address), NATIVE and VM through
   Harness.Configs.apply. *)
let build (spec : Campaign.Grid.target_spec) =
  let op = spec.Campaign.Grid.tg_name in
  let t =
    Minic.Randomfuns.generate
      (Minic.Randomfuns.default_params ~loop_size:spec.Campaign.Grid.tg_loop
         ~seed:spec.Campaign.Grid.tg_seed
         ~input_size:spec.Campaign.Grid.tg_input_size
         ~control_index:spec.Campaign.Grid.tg_control ~point_test:true ())
  in
  let prog = t.Minic.Randomfuns.prog in
  let native = layer_call "minic.compile" ~op (fun () -> Minic.Codegen.compile prog) in
  let native_bytes = float_of_int (String.length (Image.serialize native)) in
  let protect name =
    let conf = Campaign.Grid.config_named name in
    let op = op ^ "/" ^ name in
    let rop config =
      let ctx =
        layer_call "gadget.prepare" ~op (fun () ->
            Ropc.Rewriter.prepare native ~functions:[ "target" ])
      in
      let r =
        layer_call "core.rewrite" ~op (fun () -> Ropc.Rewriter.rewrite_with ctx ~config)
      in
      match List.assoc "target" r.Ropc.Rewriter.funcs with
      | Ok st ->
        (r.Ropc.Rewriter.image,
         Some (st.Ropc.Rewriter.fs_chain_addr, st.Ropc.Rewriter.fs_chain_bytes))
      | Error e -> failwith (op ^ ": " ^ Ropc.Rewriter.failure_to_string e)
    in
    let img, chain =
      match conf.Harness.Configs.obf with
      | Harness.Configs.Rop k -> rop (Ropc.Config.rop_k k)
      | Harness.Configs.Rop_full config -> rop config
      | Harness.Configs.Native -> (native, None)
      | Harness.Configs.Vm _ ->
        ( layer_call "vmobf.apply" ~op (fun () ->
              Harness.Configs.apply conf.Harness.Configs.obf prog ~funcs:[ "target" ]),
          None )
    in
    { pr_config = name; pr_img = img; pr_chain = chain;
      pr_size_x = float_of_int (String.length (Image.serialize img)) /. native_bytes }
  in
  { tg_spec = spec; tg_native = native; tg_protected = List.map protect config_names }

let engine_budget config =
  let budget = budget_for config in
  { E.default_budget with
    E.wall_seconds = 60.0;
    max_states = budget.Campaign.Grid.bp_max_states;
    max_instrs = budget.Campaign.Grid.bp_max_instrs;
    path_fuel = budget.Campaign.Grid.bp_max_instrs;
    solver_evals = budget.Campaign.Grid.bp_solver_evals;
    total_solver_evals = budget.Campaign.Grid.bp_total_evals }

type acc = {
  mutable sym_runs : int;
  mutable sym_s : float;
  mutable instrs : int;
  mutable states : int;
  mutable evals : int;
  mutable memo_hits : int;
  mutable memo_misses : int;
  mutable found : int;
  mutable tds_runs : int;
  mutable trace_len : int;
  mutable kept : int;
  mutable memu_runs : int;
  mutable memu_traces : int;
}

let acc () =
  { sym_runs = 0; sym_s = 0.0; instrs = 0; states = 0; evals = 0;
    memo_hits = 0; memo_misses = 0; found = 0; tds_runs = 0; trace_len = 0;
    kept = 0; memu_runs = 0; memu_traces = 0 }

(* A found secret must open the native target: a concrete run on it
   returns 1. *)
let validate chk tg op (m : Symex.Solver.model) =
  let input = Symex.Solver.input_of_model m in
  let arg = ref 0L in
  for i = tg.tg_spec.Campaign.Grid.tg_input_size - 1 downto 0 do
    arg := Int64.logor (Int64.shift_left !arg 8) (Int64.of_int (input i))
  done;
  let r = Runner.call ~fuel:100_000_000 tg.tg_native ~func:"target" ~args:[ !arg ] in
  if r.Runner.status <> Machine.Exec.Halted || r.Runner.rax <> 1L then
    fail chk (Printf.sprintf "%s: secret 0x%Lx does not open the native target" op !arg)

(* The cells of one protected target; returns each cell's wall time. *)
let cells chk a ~measure tg pr =
  let op0 = tg.tg_spec.Campaign.Grid.tg_name ^ "/" ^ pr.pr_config in
  (* one cell: a timed layer call, then its bookkeeping *)
  let cell name f record =
    let op = op0 ^ "/" ^ name in
    fst
      (measure (fun () ->
           attempt chk;
           let t0 = now () in
           let v = layer_call name ~op f in
           let dt = now () -. t0 in
           record op dt v;
           (dt, ())))
  in
  let sym name run =
    (* the engine seed comes from the cell's key, as in Campaign.Runner *)
    let seed =
      Int64.to_int
        (Int64.logand
           (Util.Rng.next64 (Util.Rng.of_key ~seed:0 (op0 ^ "/" ^ name)))
           0x3FFFFFFFL)
    in
    let memo = ref (Symex.Solver.Memo.create ()) in
    cell name
      (fun () ->
         memo := Symex.Solver.Memo.create ();
         Symex.Solver.set_memo (Some !memo);
         Fun.protect ~finally:(fun () -> Symex.Solver.set_memo None) (fun () ->
             run ~toa:false ~seed ~goal:E.G_secret ~budget:(engine_budget pr.pr_config)
               { E.img = pr.pr_img; func = "target";
                 n_inputs = tg.tg_spec.Campaign.Grid.tg_input_size }))
      (fun op dt (r : E.result) ->
         a.sym_runs <- a.sym_runs + 1;
         a.sym_s <- a.sym_s +. dt;
         a.instrs <- a.instrs + r.E.stats.E.instrs;
         a.states <- a.states + r.E.stats.E.states;
         a.evals <- a.evals + r.E.stats.E.solver.Symex.Solver.evals;
         a.memo_hits <- a.memo_hits + !memo.Symex.Solver.Memo.hits;
         a.memo_misses <- a.memo_misses + !memo.Symex.Solver.Memo.misses;
         match r.E.secret_input with
         | Some m -> a.found <- a.found + 1; validate chk tg op m
         | None -> ())
  in
  let dse = sym "symex.dse" (fun ~toa ~seed -> E.dse ~toa ~seed) in
  let se = sym "symex.se" (fun ~toa ~seed -> E.se ~toa ~seed) in
  let tds =
    cell "taint.tds"
      (fun () ->
         Taint.Tds.run ~fuel:tds_fuel pr.pr_img ~func:"target"
           ~n_inputs:tg.tg_spec.Campaign.Grid.tg_input_size ~input:[| 7 |])
      (fun _ _ r ->
         a.tds_runs <- a.tds_runs + 1;
         a.trace_len <- a.trace_len + r.Taint.Tds.total;
         a.kept <- a.kept + r.Taint.Tds.n_kept)
  in
  let memu =
    cell "ropaware.ropmemu"
      (fun () ->
         Ropaware.Ropmemu.explore ~config:memu_config pr.pr_img ~func:"target" ~args:[ 5L ])
      (fun _ _ r ->
         a.memu_runs <- a.memu_runs + 1;
         a.memu_traces <- a.memu_traces + r.Ropaware.Ropmemu.traces)
  in
  let dis =
    match pr.pr_chain with
    | None -> []
    | Some (chain_addr, chain_len) ->
      [ cell "ropaware.dissector"
          (fun () -> Ropaware.Ropdissector.analyze pr.pr_img ~chain_addr ~chain_len)
          (fun _ _ _ -> ()) ]
  in
  [ dse; se; tds; memu ] @ dis

(* One target per Table IV control structure, as in Campaign.Grid's
   presets.  The cells are fixed, as a campaign's are: every engine seed
   comes from its cell's key and every config keeps its own rewrite seed
   (with seeds drawn per run, the cells' costs moved the latency
   percentiles by over 30% between seeds).  The workload seed draws the
   order in which the protected targets are attacked in every
   repetition. *)
let specs =
  List.init 5 (fun i ->
      Campaign.Grid.mk_target ~seed:(i + 1) ~input_size:1 ~control:(i + 1))

let run ~seed ~seconds ~traced : outcome =
  let rng = Util.Rng.create (0xa77c + seed) in
  let targets = setup ~traced (fun () -> List.map build specs) in
  let protected =
    List.mapi (fun j x -> (j, x))
      (List.concat_map (fun tg -> List.map (fun pr -> (tg, pr)) tg.tg_protected) targets)
  in
  let chk = checks () in
  let a = acc () in
  let b = times () in
  let measure = measure ~traced in
  (* A repetition attacks every cell once, the protected targets in a fresh
     order (see Wl_protect); repetitions do identical work.  Cell k of
     protected target j is operation 8j + k. *)
  let nreps =
    run_reps ~seconds ~setups:2 (fun () ->
        List.iter
          (fun (j, (tg, pr)) ->
             List.iteri (fun k dt -> record b ((8 * j) + k) ~work:1.0 dt)
               (cells chk a ~measure tg pr))
          (Util.Rng.shuffle rng protected))
  in
  (* Obs.Metrics is enabled only in the traced copies *)
  let queries = counter_value (Obs.Metrics.snapshot ()) "symex.solver.queries" in
  let n = b.b_samples in
  let f = float_of_int in
  let sizes =
    targets
    |> List.concat_map (fun tg ->
        List.filter_map
          (fun pr -> if pr.pr_config = "NATIVE" then None else Some pr.pr_size_x)
          tg.tg_protected)
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
         let per_sym x = ratio (f x) (f a.sym_runs) in
         program_layers ()
         @ [ ("symex.dse_ms", layer_ms "symex.dse");
           ("symex.se_ms", layer_ms "symex.se");
           ("symex.instrs", per_sym a.instrs);
           ("symex.states", per_sym a.states);
           ("symex.us_per_instr", 1e6 *. ratio a.sym_s (f a.instrs));
           ("symex.solver_evals", per_sym a.evals);
           (* the traced copies are half of all symbolic runs *)
           ("symex.solver_queries", ratio (f queries) (f (a.sym_runs / 2)));
           ("symex.memo_hit_ratio",
            ratio (f a.memo_hits) (f (a.memo_hits + a.memo_misses)));
           ("symex.found_ratio", per_sym a.found);
           ("taint.tds_ms", layer_ms "taint.tds");
           ("taint.trace_len", ratio (f a.trace_len) (f a.tds_runs));
           ("taint.kept_ratio", ratio (f a.kept) (f a.trace_len));
           ("ropaware.ropmemu_ms", layer_ms "ropaware.ropmemu");
           ("ropaware.ropmemu_traces", ratio (f a.memu_traces) (f a.memu_runs));
           ("ropaware.dissector_ms", layer_ms "ropaware.dissector") ]
         @ gc_layers ());
    notes =
      [ Printf.sprintf "attack: %d repetitions, %d cells, %d secrets found" nreps n a.found ] }
