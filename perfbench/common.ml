(* Shared machinery of the benchmark: clocks, order statistics, the span
   harvest behind the traced run, the injected-delay hook of the self-check,
   and the JSON result line.

   Every layer is measured from outside: a workload wraps each call it makes
   into a library's public function in [layer_call], which files an
   Obs.Trace span named after the layer ("bench.<layer>") with the
   operation id as its argument.  The program's own spans (rewrite.*,
   roplint.*, symex.*, ...) land in the same ring on the same clock, so the
   traced run can attribute time to them by interval containment. *)

let now = Unix.gettimeofday

(* --- order statistics ------------------------------------------------------- *)

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
       /. float_of_int (List.length xs))

let ratio a b = if b = 0.0 then 0.0 else a /. b

let sumf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* --- machine speed ---------------------------------------------------------- *)

(* On a shared host the speed of a vCPU moves with what the other tenants
   run: the program's operations take 1.1-1.3x their best time for stretches
   of seconds to minutes, and over minutes the mix shifts.  Every timed
   figure of the benchmark is therefore scaled by the machine's speed at the
   moment it was taken, measured by a fixed reference workload
   (Reference.work, about 1 ms, in the benchmark's process) right before and
   after it: a figure reads [raw * reference_s / reference time], i.e. in
   seconds of a machine on which the reference work takes [reference_s].
   The reference is the benchmark's own code, so a change to the program
   moves the scaled figures as it moves the raw ones, while the host's speed
   cancels out as far as the reference and the program slow down alike. *)
let reference_s = 0.001

(* Every reference time taken, for the traced run's calib.reference_ms. *)
let reference_samples = ref []

let reference_time () =
  let dt = Reference.time () in
  reference_samples := dt :: !reference_samples;
  dt

(* The reference time after the last scaled operation, and when it was
   taken: back-to-back operations share the reference run between them. *)
let last_reference = ref (neg_infinity, 0.0)

(* Raw and scaled seconds of everything [scaled] timed, for the result's
   notes. *)
let raw_total = ref 0.0
let scaled_total = ref 0.0

(* Run [f], which returns its own raw time [dt] and a value, between two
   reference runs; returns [dt] scaled by the mean of the two. *)
let scaled f =
  let k0 =
    match !last_reference with
    | t, k when now () -. t < 0.25 -> k
    | _ -> reference_time ()
  in
  let dt, v = f () in
  let k1 = reference_time () in
  last_reference := (now (), k1);
  let sdt = dt *. reference_s /. ((k0 +. k1) /. 2.0) in
  raw_total := !raw_total +. dt;
  scaled_total := !scaled_total +. sdt;
  (sdt, v)

(* --- injected delay (the must-fail self-check) ------------------------------ *)

(* [--inject-delay LAYER:MS] sleeps MS milliseconds before the calls the
   benchmark makes into LAYER: in set-up, and in every other repetition of
   the timed loop.  The end-to-end metrics then come from the delayed
   repetitions and the plain ones are reported next to them, so the
   self-check compares the two within one process, repetitions seconds
   apart, and the machine's drift over minutes does not enter the
   comparison.  The self-check uses it to prove that a slower layer moves
   exactly the workloads that call it. *)
let injected : (string * float) option ref = ref None

let delay_on = ref true

(* --- layer calls and spans -------------------------------------------------- *)

let layer_call layer ~op f =
  (match !injected with
   | Some (l, ms) when l = layer && !delay_on -> Unix.sleepf (ms /. 1000.0)
   | _ -> ());
  Obs.Trace.with_span ~args:[ ("op", op) ] ("bench." ^ layer) f

(* Per-name span totals, accumulated across harvests. *)
type span_tot = {
  mutable st_count : int;
  mutable st_dur_us : float;
  mutable st_self_us : float;
}

let span_tots : (string, span_tot) Hashtbl.t = Hashtbl.create 64
let spans_seen = ref 0
let spans_dropped = ref 0

(* Big enough for the spans of any one operation and of any workload's
   set-up; a harvest after each empties it, and the traced run fails if any
   span was dropped all the same. *)
let ring_capacity = 1 lsl 15

let trace_on () =
  Obs.Trace.set_enabled ~capacity:ring_capacity true;
  Obs.Metrics.set_enabled true

let trace_off () =
  Obs.Trace.set_enabled false;
  Obs.Metrics.set_enabled false

let is_layer_span name = String.length name > 6 && String.sub name 0 6 = "bench."

(* Fold the ring into [span_tots] and re-arm it.  A span's parent is the
   innermost earlier span whose interval contains it; its self time is its
   duration minus the durations of its direct children.  A program span is
   filed under "<layer span>/<name>" for the innermost benchmark layer span
   around it, so a program phase is attributed to the layer call that ran
   it (and not to, say, the benchmark's own correctness checks). *)
let harvest () =
  spans_dropped := !spans_dropped + Obs.Trace.dropped ();
  let ss =
    Array.of_list
      (List.filter (fun s -> not s.Obs.Trace.s_instant) (Obs.Trace.spans ())
       |> List.stable_sort (fun a b ->
           let c = compare a.Obs.Trace.s_ts_us b.Obs.Trace.s_ts_us in
           if c <> 0 then c else compare b.Obs.Trace.s_dur_us a.Obs.Trace.s_dur_us))
  in
  spans_seen := !spans_seen + Array.length ss;
  let self = Array.map (fun s -> s.Obs.Trace.s_dur_us) ss in
  let layer = Array.make (Array.length ss) "" in
  let stack = ref [] in
  let ends s = s.Obs.Trace.s_ts_us +. s.Obs.Trace.s_dur_us in
  Array.iteri
    (fun i s ->
       let rec pop () =
         match !stack with
         | p :: rest when ends s > ends ss.(p) +. 0.001 -> stack := rest; pop ()
         | _ -> ()
       in
       pop ();
       (match !stack with
        | p :: _ ->
          self.(p) <- self.(p) -. s.Obs.Trace.s_dur_us;
          layer.(i) <- (if is_layer_span ss.(p).Obs.Trace.s_name then ss.(p).Obs.Trace.s_name
                        else layer.(p))
        | [] -> ());
       stack := i :: !stack)
    ss;
  let add key dur self =
    let t =
      match Hashtbl.find_opt span_tots key with
      | Some t -> t
      | None ->
        let t = { st_count = 0; st_dur_us = 0.0; st_self_us = 0.0 } in
        Hashtbl.replace span_tots key t;
        t
    in
    t.st_count <- t.st_count + 1;
    t.st_dur_us <- t.st_dur_us +. dur;
    t.st_self_us <- t.st_self_us +. Float.max 0.0 self
  in
  Array.iteri
    (fun i s ->
       let name = s.Obs.Trace.s_name in
       let key = if is_layer_span name then name else layer.(i) ^ "/" ^ name in
       add key s.Obs.Trace.s_dur_us self.(i))
    ss;
  Obs.Trace.set_enabled ~capacity:ring_capacity true

let span_count name =
  match Hashtbl.find_opt span_tots name with Some t -> t.st_count | None -> 0

(* Mean duration in ms of the benchmark's own span around [layer]. *)
let layer_ms layer =
  match Hashtbl.find_opt span_tots ("bench." ^ layer) with
  | Some t when t.st_count > 0 -> t.st_dur_us /. 1000.0 /. float_of_int t.st_count
  | _ -> 0.0

(* Self time in ms of the program span [name] inside the benchmark's calls
   into [layer], per such call. *)
let self_ms ~layer name =
  let per = span_count ("bench." ^ layer) in
  match Hashtbl.find_opt span_tots ("bench." ^ layer ^ "/" ^ name) with
  | Some t when per > 0 -> t.st_self_us /. 1000.0 /. float_of_int per
  | _ -> 0.0

(* Total wall time of the untraced and the traced copies of the operations
   of a traced run. *)
let plain_s = ref 0.0
let traced_s = ref 0.0

(* Allocation and major collections of the untraced copies, so that the
   figures are the operations' own: the tracer's spans and the harvest
   stay out of them. *)
let plain_ops = ref 0
let plain_minor_words = ref 0.0
let plain_majors = ref 0

let overhead_pct () = 100.0 *. ratio (!traced_s -. !plain_s) !plain_s

(* Time one operation; [f] returns its own wall time and result.  In a
   traced run the operation runs twice, untraced and traced, in alternating
   order so that drift over the run cancels out, and the traced copy's
   time and result are returned. *)
let measure ~traced =
  let k = ref 0 in
  fun f ->
    let f () = scaled f in
    if not traced then f ()
    else begin
      incr k;
      let plain () =
        let m0 = (Gc.quick_stat ()).Gc.major_collections in
        let w0 = Gc.minor_words () in
        let dt, _ = f () in
        let w1 = Gc.minor_words () in
        let m1 = (Gc.quick_stat ()).Gc.major_collections in
        incr plain_ops;
        plain_minor_words := !plain_minor_words +. (w1 -. w0);
        plain_majors := !plain_majors + (m1 - m0);
        plain_s := !plain_s +. dt
      in
      let traced () =
        trace_on ();
        let dt, v = f () in
        harvest ();
        trace_off ();
        traced_s := !traced_s +. dt;
        (dt, v)
      in
      if !k land 1 = 0 then (plain (); traced ())
      else begin
        let r = traced () in
        plain ();
        r
      end
    end

(* The set-up layers and the rewrite phases, for any workload that calls
   them (in its timed loop or in its set-up). *)
let program_layers () =
  [ ("minic.compile_ms", layer_ms "minic.compile");
    ("gadget.prepare_ms", layer_ms "gadget.prepare");
    ("vmobf.apply_ms", layer_ms "vmobf.apply");
    ("core.rewrite_ms", layer_ms "core.rewrite") ]
  @ List.map
    (fun (k, span) -> (k, self_ms ~layer:"core.rewrite" span))
    [ ("core.cfg_ms", "rewrite.cfg"); ("core.liveness_ms", "rewrite.liveness");
      ("core.lower_ms", "rewrite.lower"); ("core.materialize_ms", "rewrite.materialize");
      ("core.pool_build_ms", "rewrite.pool_build") ]

(* Minor words allocated and major collections, per operation, over the
   untraced copies of a traced run. *)
let gc_layers () =
  let per x = ratio x (float_of_int !plain_ops) in
  [ ("gc.minor_words", per !plain_minor_words);
    ("gc.major_collections", per (float_of_int !plain_majors)) ]

(* --- metrics counters read through Obs.Metrics ------------------------------ *)

let counter_value snap name =
  match List.assoc_opt name snap with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

(* --- result ----------------------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  failures : string list;             (* first few mismatch messages *)
  e2e : (string * float * int) list;  (* name, value, sample count *)
  layers : (string * float) list;     (* traced run only *)
  notes : string list;                (* extra human-readable lines *)
}

(* A failure log shared by the workloads: counts everything, keeps the
   first few messages for stderr. *)
type checks = {
  mutable c_attempted : int;
  mutable c_failed : int;
  mutable c_msgs : string list;
}

let checks () = { c_attempted = 0; c_failed = 0; c_msgs = [] }

let attempt c = c.c_attempted <- c.c_attempted + 1

let fail c msg =
  c.c_failed <- c.c_failed + 1;
  if List.length c.c_msgs < 10 then c.c_msgs <- msg :: c.c_msgs

(* The top of the major heap of the benchmark process. *)
let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int (st.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Every workload measures its set-up with [setup]: the first run's result
   is the workload's, and [setup_again] runs it once more and disposes of
   the result with [stop].  The workloads call [setup_again] between their
   timed repetitions ([run_reps ~setups]), so that the samples spread over
   the whole run: the machine's speed drifts over seconds, and samples
   taken back to back at the start all land in the same stretch (the
   median of 101 back-to-back set-ups of protect moved by 40% between
   runs).  Every sample is scaled by the machine's speed (see [scaled]);
   setup_s is the median of the samples.  With [traced], the first
   set-up's layer spans are collected. *)
let setup_samples = ref []
let setup_again = ref (fun () -> ())

let setup ?(stop = fun _ -> ()) ~traced f =
  let timed () =
    let dt, v =
      scaled (fun () ->
          let t0 = now () in
          let v = f () in
          (now () -. t0, v))
    in
    setup_samples := dt :: !setup_samples;
    v
  in
  if traced then trace_on ();
  let v = timed () in
  if traced then (harvest (); trace_off ());
  setup_again := (fun () -> stop (timed ()));
  v

let setup_metric () =
  ("setup_s", median !setup_samples, List.length !setup_samples)

(* Run repetitions of a workload's fixed operation set: at least three, and
   another only while it fits in [seconds] (10% slack), each followed by
   [setups] untimed set-ups (see [setup]).  Returns the number of
   repetitions.  The top of the heap is read after the first repetition,
   before the timed repetition count can make a difference to it. *)
let heap_after_first_rep = ref 0.0

let run_reps ~seconds ~setups f =
  let injecting = !injected <> None in
  let t0 = now () in
  let rec go n =
    let t = now () in
    if injecting then delay_on := n mod 2 = 1;
    f ();
    if n = 0 then heap_after_first_rep := peak_heap_mb ();
    for _ = 1 to setups do !setup_again () done;
    let last = now () -. t in
    if n < (if injecting then 3 else 2) || now () -. t0 +. last <= 1.1 *. seconds then
      go (n + 1)
    else n + 1
  in
  let n = go 0 in
  delay_on := true;
  n

(* Every operation's scaled times over the repetitions.  Every repetition
   does the same work; an operation's figure is the median of its times, so
   that a stretch in which the reference and the operation were slowed
   unequally (a few ms either way) does not decide it.  Throughput and
   latency percentiles are taken over these medians.  With an injected
   delay the plain repetitions are kept apart, in [b_plain]. *)
type times = {
  b_ops : (int, float list * float) Hashtbl.t;   (* op index -> times, work *)
  b_plain : (int, float list * float) Hashtbl.t;
  mutable b_samples : int;
}

let times () = { b_ops = Hashtbl.create 256; b_plain = Hashtbl.create 256; b_samples = 0 }

let record b i ~work dt =
  let tbl = if !injected <> None && not !delay_on then b.b_plain else b.b_ops in
  let ts = match Hashtbl.find_opt tbl i with Some (ts, _) -> ts | None -> [] in
  Hashtbl.replace tbl i (dt :: ts, work);
  b.b_samples <- b.b_samples + 1

let op_medians tbl = Hashtbl.fold (fun _ (ts, w) acc -> (median ts, w) :: acc) tbl []

let throughput tbl =
  let ops = op_medians tbl in
  ratio (sumf snd ops) (sumf fst ops)

(* throughput of the plain repetitions of a run with an injected delay *)
let plain_throughput = ref 0.0

let time_metrics b =
  plain_throughput := throughput b.b_plain;
  let meds = List.map fst (op_medians b.b_ops) in
  [ ("throughput_per_s", throughput b.b_ops, b.b_samples);
    ("latency_p50_ms", 1000.0 *. median meds, b.b_samples);
    ("latency_p90_ms", 1000.0 *. quantile 0.9 meds, b.b_samples) ]

(* --- the spec draw of protect and run --------------------------------------- *)

let matrix = Array.of_list (Serve.Oneshot.matrix_names ())

(* Five (config, rewrite seed) pairs per program: program i gets the
   configs of residue class i mod 3 of Serve.Oneshot.config_matrix, which
   span the matrix from the plain rewrite to the full layer stack, so every
   class goes to a third of the programs; the rewrite seeds are fixed.  The
   pairs do not depend on the workload's seed: which heavy program got which
   class moved the latency percentiles by 15-30% between seeds, and
   seed-drawn rewrite seeds moved them by up to 25%, more than the bounds
   allow.  Numbered, so that an operation keeps its index whatever order a
   repetition runs it in. *)
let stratified progs =
  let rng = Util.Rng.create 0x57a7 in
  List.mapi (fun i x -> (i, x)) @@ List.concat
    (List.mapi
       (fun i p ->
          List.init (Array.length matrix / 3) (fun j ->
              (p, matrix.((i mod 3) + (3 * j)), 1 + Util.Rng.int rng 1_000_000)))
       progs)

(* --- JSON out, through Obs.Json's value type -------------------------------- *)

let rec json_to_buffer b (v : Obs.Json.t) =
  match v with
  | Obs.Json.Null -> Buffer.add_string b "null"
  | Obs.Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Obs.Json.Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.bprintf b "%.0f" f
    else if Float.is_finite f then Printf.bprintf b "%.17g" f
    else Buffer.add_string b "null"
  | Obs.Json.Str s -> Printf.bprintf b "\"%s\"" (Obs.Trace.esc s)
  | Obs.Json.Arr xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x -> if i > 0 then Buffer.add_char b ','; json_to_buffer b x)
      xs;
    Buffer.add_char b ']'
  | Obs.Json.Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
         if i > 0 then Buffer.add_char b ',';
         Printf.bprintf b "\"%s\":" (Obs.Trace.esc k);
         json_to_buffer b x)
      kvs;
    Buffer.add_char b '}'

let json_to_string v =
  let b = Buffer.create 1024 in
  json_to_buffer b v;
  Buffer.contents b
