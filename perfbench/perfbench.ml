(* Benchmark runner: one workload, one seed, untraced (end-to-end
   metrics) or traced (per-layer metrics).  The last line of standard
   output is the result:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   See README.md for the workloads and the metrics. *)

let usage =
  "perfbench --workload compile_cold|serve_hot|serve_churn --seed N \
   --seconds N --trace 0|1"

let workloads =
  [
    ("compile_cold", (Compile_cold.run, Compile_cold.traced));
    ("serve_hot", (Serve.hot, Serve.hot_traced));
    ("serve_churn", (Serve.churn, Serve.churn_traced));
  ]

let result metrics =
  let module Json = Amos_server.Json in
  Json.to_string
    (Obj
       [
         ("correct", Bool (!Util.failed = 0));
         ("attempted", Int !Util.attempted);
         ("failed", Int !Util.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, v, unit) ->
                  ( name,
                    Json.Obj
                      [
                        ( "value",
                          if unit = "count" then Json.Int (int_of_float v)
                          else Json.Float v );
                        ("unit", String unit);
                      ] ))
                metrics) );
       ])

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "N work to measure, in seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run, traced =
    match List.assoc_opt !workload workloads with
    | Some w when !seed >= 0 && !seconds > 0 && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  (* a signal still runs the exit hooks that reap daemons and remove the
     run directory *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let metrics =
    if !trace = 0 then begin
      Speed.enable ();
      let m = run ~seed:!seed ~seconds:!seconds in
      m @ [ ("ok_ratio", Util.ok_ratio (), "ratio") ]
    end
    else begin
      let m = traced ~seed:!seed ~seconds:!seconds in
      let path =
        Filename.concat Util.out_dir
          (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
      in
      Util.mkdir_p Util.out_dir;
      Trace.dump path;
      Printf.eprintf "spans written to %s\n%!" path;
      m
    end
  in
  List.iter
    (fun (name, v, _) ->
      if not (Float.is_finite v) then
        Util.attempt false (lazy (name ^ " is not a finite number")))
    metrics;
  List.iter (fun r -> Printf.eprintf "check failed: %s\n" r) (List.rev !Util.reasons);
  print_endline (result metrics);
  exit (if !Util.failed = 0 then 0 else 1)
