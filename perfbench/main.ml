(* Stage-attributed pipeline benchmark.

     main.exe --workload protect|run|attack|serve --seed N --seconds S
              --trace 0|1 [--inject-delay LAYER:MS]

   Untraced (--trace 0), a run prints every end-to-end metric with its unit
   and sample count, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  Traced (--trace 1), it
   prints the per-layer metrics instead.  Any correctness mismatch makes
   "correct" false and the exit code 1.  perfbench/README.md lists the
   metrics, the workloads and which layer metric should move which
   end-to-end metric. *)

open Common

(* End-to-end metrics: name, unit.  Same list, same order as
   BENCHMARK.json. *)
let e2e_catalog =
  [ ("setup_s", "s");
    ("throughput_per_s", "1/s");
    ("peak_heap_mb", "MB");
    ("image_size_x", "x") ]

(* Latency percentiles: printed by every run, but not bounded end-to-end
   metrics: from run to run of the same code they spread by more than the
   largest bound the benchmark may set (serve's p90 by up to 0.4 of its
   median on a 2-core shared VM).  The traced run reports them as the
   per-layer metrics latency.p50_ms and latency.p90_ms. *)
let latency_catalog = [ ("latency_p50_ms", "latency.p50_ms"); ("latency_p90_ms", "latency.p90_ms") ]

(* Per-layer metrics of the traced run.  A workload that bypasses a layer
   reports 0 for it. *)
let layer_catalog =
  [ ("minic.compile_ms", "ms"); ("gadget.prepare_ms", "ms");
    ("gadget.found", "count"); ("vmobf.apply_ms", "ms");
    ("core.rewrite_ms", "ms"); ("core.rewrite_per_s", "1/s");
    ("core.cfg_ms", "ms"); ("core.liveness_ms", "ms"); ("core.lower_ms", "ms");
    ("core.materialize_ms", "ms"); ("core.pool_build_ms", "ms");
    ("core.points", "count"); ("core.chain_bytes", "bytes");
    ("core.pool_bytes", "bytes"); ("core.gadget_uses", "count");
    ("core.unique_gadgets", "count"); ("core.funcs_failed", "count");
    ("verify.check_ms", "ms"); ("verify.findings", "count");
    ("verify.verdict_per_s", "1/s");
    ("staticanalysis.lint_ms", "ms");
    ("staticanalysis.stackdisc_ms", "ms"); ("staticanalysis.transval_ms", "ms");
    ("staticanalysis.stealth_ms", "ms"); ("staticanalysis.poolbloat_ms", "ms");
    ("staticanalysis.transval_proven", "count");
    ("staticanalysis.transval_unproven", "count");
    ("staticanalysis.fixpoint_iters", "count");
    ("image.load_ms", "ms"); ("machine.run_ms", "ms");
    ("machine.ns_per_step", "ns"); ("machine.steps", "count");
    ("machine.dispatches", "count"); ("machine.dm_hit_ratio", "ratio");
    ("machine.blocks_translated", "count"); ("machine.fused_ratio", "ratio");
    ("machine.cache_flushes", "count"); ("machine.overhead_x", "x");
    ("symex.dse_ms", "ms"); ("symex.se_ms", "ms"); ("symex.instrs", "count");
    ("symex.states", "count"); ("symex.us_per_instr", "us");
    ("symex.solver_evals", "count"); ("symex.solver_queries", "count");
    ("symex.memo_hit_ratio", "ratio"); ("symex.found_ratio", "ratio");
    ("taint.tds_ms", "ms"); ("taint.trace_len", "count");
    ("taint.kept_ratio", "ratio");
    ("ropaware.ropmemu_ms", "ms"); ("ropaware.ropmemu_traces", "count");
    ("ropaware.dissector_ms", "ms");
    ("serve.queue_ms", "ms"); ("serve.worker_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.hit_ratio", "ratio"); ("serve.coalesced", "count");
    ("serve.shed", "count"); ("serve.expired", "count");
    ("serve.gen_late_ms", "ms");
    ("gc.minor_words", "words"); ("gc.major_collections", "count");
    ("trace.spans", "count"); ("trace.dropped", "count");
    ("trace.overhead_pct", "%"); ("calib.reference_ms", "ms");
    ("latency.p50_ms", "ms"); ("latency.p90_ms", "ms") ]

let workloads =
  [ ("protect", Wl_protect.run); ("run", Wl_run.run);
    ("attack", Wl_attack.run); ("serve", Wl_serve.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload protect|run|attack|serve --seed N --seconds S \
     --trace 0|1 [--inject-delay LAYER:MS]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 in
  let traced = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some x when x > 0.0 -> seconds := x
       | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> traced := t = "1"; parse rest
    | "--inject-delay" :: spec :: rest ->
      (match String.rindex_opt spec ':' with
       | Some i ->
         (match float_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
          | Some ms -> injected := Some (String.sub spec 0 i, ms)
          | None -> usage ())
       | None -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run =
    match List.assoc_opt !workload workloads with Some f -> f | None -> usage ()
  in
  let o = run ~seed:!seed ~seconds:!seconds ~traced:!traced in
  let values, catalog =
    if !traced then
      (("trace.spans", float_of_int !spans_seen)
       :: ("trace.dropped", float_of_int !spans_dropped)
       :: ("trace.overhead_pct", overhead_pct ())
       :: ("calib.reference_ms", 1000.0 *. median !reference_samples)
       :: List.filter_map
         (fun (k, v, _) -> Option.map (fun k' -> (k', v)) (List.assoc_opt k latency_catalog))
         o.e2e
       @ o.layers,
       layer_catalog)
    else (List.map (fun (k, v, _) -> (k, v)) o.e2e, e2e_catalog)
  in
  List.iter print_endline o.notes;
  Printf.printf "machine speed: reference work median %.3f ms over %d runs (times \
                 are scaled to %.3f ms)\n"
    (1000.0 *. median !reference_samples) (List.length !reference_samples)
    (1000.0 *. reference_s);
  if !raw_total > 0.0 then
    Printf.printf "scaled operations and set-ups: %.3f s raw, %.3f s scaled\n"
      !raw_total !scaled_total;
  if !injected <> None then
    Printf.printf "plain repetitions: throughput_per_s %.17g\n" !plain_throughput;
  List.iter (fun m -> Printf.eprintf "FAIL %s\n" m) o.failures;
  let samples k =
    match List.find_opt (fun (k', _, _) -> k' = k) o.e2e with
    | Some (_, _, n) when not !traced -> Printf.sprintf "  (n=%d)" n
    | _ -> ""
  in
  if not !traced then
    List.iter
      (fun (k, v, n) ->
         if List.mem_assoc k latency_catalog then
           Printf.printf "%-36s %14.4f %-6s  (n=%d, not bounded)\n" k v "ms" n)
      o.e2e;
  let metrics =
    List.map
      (fun (k, u) ->
         let v = Option.value (List.assoc_opt k values) ~default:0.0 in
         Printf.printf "%-36s %14.4f %-6s%s\n" k v u (samples k);
         (k, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str u) ]))
      catalog
  in
  let dropped_ok = (not !traced) || !spans_dropped = 0 in
  if not dropped_ok then
    Printf.eprintf "FAIL trace ring dropped %d spans\n" !spans_dropped;
  let correct = o.failed = 0 && dropped_ok in
  print_endline
    (json_to_string
       (Obs.Json.Obj
          [ ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Num (float_of_int o.attempted));
            ("failed", Obs.Json.Num (float_of_int o.failed));
            ("metrics", Obs.Json.Obj metrics) ]));
  exit (if correct then 0 else 1)
