// Command socialtube-trace generates a synthetic YouTube social-network
// trace and reproduces the Section III trace-analysis figures (Figs. 2–13).
//
// Usage:
//
//	socialtube-trace -fig 9 -channels 545 -users 2000 -seed 1
//	socialtube-trace -fig all
//	socialtube-trace -save trace.json
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/socialtube/socialtube/internal/figures"
	"github.com/socialtube/socialtube/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "socialtube-trace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("socialtube-trace", flag.ContinueOnError)
	var (
		fig       = fs.String("fig", "all", figures.Help(figures.GroupTrace))
		seed      = fs.Int64("seed", 1, "trace generation seed")
		channels  = fs.Int("channels", 545, "number of channels")
		users     = fs.Int("users", 2000, "number of users")
		cats      = fs.Int("categories", 18, "number of interest categories")
		minShared = fs.Int("minshared", 3, "shared-subscriber threshold for fig 10")
		save      = fs.String("save", "", "write the generated trace to this file (the chunked JSONL stream socialtube-node -trace reads)")
		crawl     = fs.Int("crawl", 0, "BFS-crawl this many users from the generated network first (the paper's Section III sampling methodology)")
		csv       = fs.Bool("csv", false, "emit figures as CSV instead of aligned tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	figs, err := figures.Resolve(figures.GroupTrace, *fig)
	if err != nil {
		return err
	}

	cfg := trace.DefaultConfig()
	cfg.Seed = *seed
	cfg.Channels = *channels
	cfg.Users = *users
	cfg.Categories = *cats
	if cfg.MaxInterestsPerUser > *cats {
		cfg.MaxInterestsPerUser = *cats
	}
	tr, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	if *crawl > 0 {
		tr, err = trace.Crawl(tr, *seed, *crawl)
		if err != nil {
			return err
		}
		fmt.Printf("BFS crawl sampled %d users (mean degree %.2f)\n", len(tr.Users), tr.MeanDegree())
	}
	s := tr.Summarize()
	fmt.Printf("trace: %d channels, %d videos, %d users, %d categories (seed %d)\n\n",
		s.Channels, s.Videos, s.Users, s.Categories, *seed)

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := tr.SaveStream(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("saved trace to %s\n", *save)
	}

	in := &figures.Inputs{Trace: tr, MinShared: *minShared}
	for _, f := range figs {
		rep, err := f.Run(in)
		if err != nil {
			return err
		}
		for _, t := range rep.Tables {
			if *csv {
				fmt.Printf("# %s\n%s\n", t.Title(), t.CSV())
			} else {
				fmt.Println(t)
			}
		}
	}
	return nil
}
