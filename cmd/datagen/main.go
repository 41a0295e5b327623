// Command datagen materializes the evaluation datasets as CSV
// directories consumable by cmd/cavsat:
//
//	datagen -kind tpch    -sf 0.001 -inconsistency 10 -out ./tpch10
//	datagen -kind pdbench -sf 0.001 -instance 2       -out ./pd2
//	datagen -kind medigap -scale 0.25                 -out ./medigap
//
// A matching schema.txt (relations, keys, functional dependencies) is
// written next to the CSV files. The tpch kind writes the demo instance
// (tpch.DemoInstance); -sf, -inconsistency and -seed default to the
// values cavsatd -dbgen and aggbench default to, so a default directory
// holds the instance a default cavsatd -dbgen serves.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aggcavsat/internal/cli"
	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
	"aggcavsat/internal/pdbench"
	"aggcavsat/internal/schemafile"
	"aggcavsat/internal/tpch"
)

func main() { cli.Main("datagen", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("datagen", stderr)
	kind := fs.String("kind", "tpch", "dataset: tpch, pdbench, medigap")
	out := fs.String("out", "./data", "output directory")
	instance := fs.Int("instance", 1, "PDBench instance 1-4 (pdbench)")
	scale := fs.Float64("scale", 0.25, "Medigap scale (medigap)")
	snapshot := fs.Bool("snapshot", true, "also write a columnar snapshot (snapshot.bin) that cavsat/cavsatd mmap instead of parsing CSV")
	f := cli.Defaults()
	f.Register(fs, cli.SF, cli.Inconsistency, cli.Seed)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	var (
		in  *db.Instance
		fds []string
		err error
	)
	switch *kind {
	case "tpch":
		in, err = tpch.DemoInstance(f.SF, f.Inconsistency, f.Seed)
	case "pdbench":
		in, _, err = pdbench.Generate(f.SF, *instance, f.Seed)
	case "medigap":
		in, err = medigap.Generate(*scale, f.Seed)
		fds = []string{
			"fd OBS orgID -> orgName",
			"fd PBS addr city state_abbrev -> zip",
		}
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}

	if err := in.SaveDir(*out); err != nil {
		return err
	}
	if err := writeSchema(in, filepath.Join(*out, "schema.txt"), fds); err != nil {
		return err
	}
	if *snapshot {
		snapPath := filepath.Join(*out, db.SnapshotFileName)
		if err := db.SaveSnapshot(in, snapPath); err != nil {
			return err
		}
		if fi, err := os.Stat(snapPath); err == nil {
			fmt.Fprintf(stdout, "wrote columnar snapshot %s (%d bytes)\n", snapPath, fi.Size())
		}
	}

	fmt.Fprintf(stdout, "wrote %d tuples across %d relations to %s\n",
		in.NumFacts(), len(in.Schema().Relations()), *out)
	for _, st := range in.KeyInconsistency() {
		if st.ViolatingFacts > 0 {
			fmt.Fprintf(stdout, "  %-10s %6d tuples, %5.2f%% violating keys\n", st.Rel, st.Facts, st.Percent())
		}
	}
	return nil
}

func writeSchema(in *db.Instance, path string, fds []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = schemafile.Write(f, in.Schema(), fds)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
