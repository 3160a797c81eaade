(* protect: the obfuscator user's build step, as a closed loop with one
   client.  Each operation is one (program, config, rewrite seed) spec from
   Serve.Oneshot's registry x config_matrix, pushed through rewrite_with,
   ropcheck and roplint: five configs per program with fixed rewrite seeds
   (see Common.stratified), 65 specs, a repetition of about three seconds
   on a 2-core box.  A run repeats the same specs at least three times, each
   repetition in a fresh order drawn from the seed, so that the collections
   of the garbage collector fall on different specs in every repetition and
   the median of a spec's times leaves them out. *)

open Common

type prog = {
  p_entry : Serve.Oneshot.entry;
  p_img : Image.t;
  p_ctx : Ropc.Rewriter.context;
  p_native_bytes : int;
}

(* rewritten digest of every spec seen, to check repetitions against the
   first one-shot rewrite *)
let digests : (string * string * int, string) Hashtbl.t = Hashtbl.create 256

(* Compile and prepare every registry program: the set-up a resident
   obfuscator pays once. *)
let prepare_all () =
  List.map
    (fun (e : Serve.Oneshot.entry) ->
       let op = e.Serve.Oneshot.e_name in
       let img = layer_call "minic.compile" ~op e.Serve.Oneshot.e_build in
       let ctx =
         layer_call "gadget.prepare" ~op (fun () ->
             Ropc.Rewriter.prepare img ~functions:e.Serve.Oneshot.e_funcs)
       in
       { p_entry = e; p_img = img; p_ctx = ctx;
         p_native_bytes = String.length (Image.serialize img) })
    (Serve.Oneshot.registry ())

type acc = {
  mutable n_rewrites : int;
  mutable rewrite_s : float;
  mutable verdict_s : float;
  mutable points : int;
  mutable chain_bytes : int;
  mutable pool_bytes : int;
  mutable uses : int;
  mutable uniq : int;
  mutable funcs_failed : int;
  mutable findings : int;
  mutable proven : int;
  mutable unproven : int;
  mutable fix_iters : int;
}

let acc () =
  { n_rewrites = 0; rewrite_s = 0.0; verdict_s = 0.0; points = 0;
    chain_bytes = 0; pool_bytes = 0; uses = 0; uniq = 0; funcs_failed = 0;
    findings = 0; proven = 0; unproven = 0; fix_iters = 0 }

(* One spec through the three layers; returns its wall time and its
   rewritten / native image size, having recorded every mismatch in
   [chk]. *)
let one chk a p ~config_name ~rseed =
  let e = p.p_entry in
  let op =
    Printf.sprintf "%s/%s/%d" e.Serve.Oneshot.e_name config_name rseed
  in
  let config =
    match Serve.Oneshot.config_of_name ~seed:rseed config_name with
    | Ok c -> c
    | Error m -> failwith m
  in
  attempt chk;
  let t0 = now () in
  let r =
    layer_call "core.rewrite" ~op (fun () ->
        Ropc.Rewriter.rewrite_with p.p_ctx ~config)
  in
  let t1 = now () in
  let diags = layer_call "verify.check" ~op (fun () -> Verify.Check.check r) in
  let lint =
    layer_call "staticanalysis.lint" ~op (fun () ->
        Staticanalysis.Driver.lint ~orig:p.p_img ~rewritten:r.Ropc.Rewriter.image
          r.Ropc.Rewriter.audit)
  in
  let t2 = now () in
  a.n_rewrites <- a.n_rewrites + 1;
  a.rewrite_s <- a.rewrite_s +. (t1 -. t0);
  a.verdict_s <- a.verdict_s +. (t2 -. t1);
  List.iter
    (fun (_, res) ->
       match res with
       | Ok st ->
         a.points <- a.points + st.Ropc.Rewriter.fs_points;
         a.chain_bytes <- a.chain_bytes + st.Ropc.Rewriter.fs_chain_bytes
       | Error _ -> a.funcs_failed <- a.funcs_failed + 1)
    r.Ropc.Rewriter.funcs;
  let au = r.Ropc.Rewriter.audit in
  a.pool_bytes <-
    a.pool_bytes + Int64.to_int (Int64.sub au.Ropc.Audit.a_pool_hi au.Ropc.Audit.a_pool_lo);
  a.uses <- a.uses + r.Ropc.Rewriter.total_gadget_uses;
  a.uniq <- a.uniq + r.Ropc.Rewriter.unique_gadgets;
  a.findings <- a.findings + List.length diags;
  let tv_unproven =
    match lint.Staticanalysis.Driver.r_transval with
    | Some tv ->
      a.proven <- a.proven + tv.Staticanalysis.Transval.tv_proven;
      tv.Staticanalysis.Transval.tv_unproven
    | None -> 0
  in
  a.unproven <- a.unproven + tv_unproven;
  List.iter
    (fun (_, (st : Staticanalysis.Fixpoint.stats)) ->
       a.fix_iters <- a.fix_iters + st.Staticanalysis.Fixpoint.iterations)
    lint.Staticanalysis.Driver.r_stackdisc_stats;
  (* correctness, outside the timed section *)
  let ser = Image.serialize r.Ropc.Rewriter.image in
  let digest = Digest.to_hex (Digest.string ser) in
  (match Verify.Diag.errors diags with
   | [] -> ()
   | d :: _ -> fail chk (op ^ ": ropcheck: " ^ Verify.Diag.render d));
  (match Verify.Finding.errors lint.Staticanalysis.Driver.r_findings with
   | [] -> ()
   | f :: _ -> fail chk (op ^ ": roplint: " ^ Verify.Finding.render f));
  if tv_unproven > 0 then
    fail chk (Printf.sprintf "%s: %d unproven transval regions" op tv_unproven);
  let key = (e.Serve.Oneshot.e_name, config_name, rseed) in
  let expect =
    match Hashtbl.find_opt digests key with
    | Some d -> Ok d
    | None ->
      Result.map
        (fun art ->
           Hashtbl.replace digests key art.Serve.Oneshot.a_image_digest;
           art.Serve.Oneshot.a_image_digest)
        (Serve.Oneshot.one_shot
           { Serve.Oneshot.sp_prog = e.Serve.Oneshot.e_name;
             sp_config = config_name; sp_seed = rseed })
  in
  (match expect with
   | Ok d when d = digest -> ()
   | Ok _ -> fail chk (op ^ ": digest differs from the one-shot rewrite")
   | Error m -> fail chk (op ^ ": one-shot failed: " ^ m));
  (t2 -. t0,
   float_of_int (String.length ser) /. float_of_int p.p_native_bytes)

let run ~seed ~seconds ~traced : outcome =
  let rng = Util.Rng.create (0x9107 + seed) in
  let progs = setup ~traced prepare_all in
  let specs = stratified progs in
  let chk = checks () in
  let a = acc () in
  let b = times () and sizes = ref [] in
  let measure = measure ~traced in
  let nreps =
    run_reps ~seconds ~setups:12 (fun () ->
        List.iter
          (fun (i, (p, config_name, rseed)) ->
             let dt, sz = measure (fun () -> one chk a p ~config_name ~rseed) in
             if b.b_samples < List.length specs then sizes := sz :: !sizes;
             record b i ~work:1.0 dt)
          (Util.Rng.shuffle rng specs))
  in
  let n = List.length !sizes in
  let f = float_of_int in
  let mean x = ratio (f x) (f a.n_rewrites) in
  { attempted = chk.c_attempted;
    failed = chk.c_failed;
    failures = List.rev chk.c_msgs;
    e2e =
      (setup_metric () :: time_metrics b)
      @ [ ("peak_heap_mb", !heap_after_first_rep, 1);
          ("image_size_x", geomean !sizes, n) ];
    layers =
      (if not traced then []
       else
         program_layers ()
         @ [ ("gadget.found",
            ratio
              (sumf (fun p -> f (List.length p.p_ctx.Ropc.Rewriter.ctx_found))
                 progs)
              (f (List.length progs)));
           ("core.rewrite_per_s", ratio (f a.n_rewrites) a.rewrite_s);
           ("core.points", mean a.points);
           ("core.chain_bytes", mean a.chain_bytes);
           ("core.pool_bytes", mean a.pool_bytes);
           ("core.gadget_uses", mean a.uses);
           ("core.unique_gadgets", mean a.uniq);
           ("core.funcs_failed", mean a.funcs_failed);
           ("verify.check_ms", layer_ms "verify.check");
           ("verify.findings", mean a.findings);
           ("verify.verdict_per_s", ratio (f (2 * a.n_rewrites)) a.verdict_s);
           ("staticanalysis.lint_ms", layer_ms "staticanalysis.lint");
           ("staticanalysis.stackdisc_ms",
            self_ms ~layer:"staticanalysis.lint" "roplint.stackdisc");
           ("staticanalysis.transval_ms",
            self_ms ~layer:"staticanalysis.lint" "roplint.transval");
           ("staticanalysis.stealth_ms", self_ms ~layer:"staticanalysis.lint" "roplint.stealth");
           ("staticanalysis.poolbloat_ms",
            self_ms ~layer:"staticanalysis.lint" "roplint.poolbloat");
           ("staticanalysis.transval_proven", mean a.proven);
           ("staticanalysis.transval_unproven", f a.unproven);
           ("staticanalysis.fixpoint_iters", mean a.fix_iters) ]
         @ gc_layers ());
    notes =
      [ Printf.sprintf "protect: %d repetitions, %d specs, rewrite %.0f/s, verdicts %.0f/s"
          nreps n (ratio (f a.n_rewrites) a.rewrite_s)
          (ratio (f (2 * a.n_rewrites)) a.verdict_s) ] }
