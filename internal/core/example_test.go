package core_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/segment"
)

// ExampleBuild builds the intention pipeline over the four motivating
// posts of the paper's Fig 1, plus two fillers, and asks which posts
// are related to Doc A. Doc A (post 0) asks whether partial disk use
// degrades performance; Doc B (post 1) shares A's vocabulary (HP, RAID,
// drive) but asks a different question; Doc C (post 2) shares little
// vocabulary with A but asks about the same concern; Doc D (post 3) is
// unrelated. Only Doc C comes back.
func ExampleBuild() {
	posts := []string{
		// Doc A
		"I have an HP system with a RAID 0 controller and 4 disks in form of " +
			"a JBOD. I would like to install Hadoop with a replication 4 HDFS and " +
			"only 320GB of disk space used from every disc. Do you know whether it " +
			"would perform ok or whether the partial use of the disk would degrade " +
			"performance. Friends have downloaded the Cloudera distribution but it " +
			"didn't work. It stopped since the web site was suggesting to have 1TB " +
			"disks. I am asking because I do not want to install Linux to find that " +
			"my HW configuration is not right.",
		// Doc B
		"My boss gave me yesterday an HP Pavilion computer with Intel Matrix " +
			"Storage System, a 320GB drive and Linux pre-installed. I am thinking " +
			"to add an extra drive using a RAID 0 or 1. Can I do it without having " +
			"to rebuild the entire system? I have already looked at the HP official " +
			"web site for how to use a JBOD. But I have not found anything related to it.",
		// Doc C
		"Extra RAID drives seem to be the solution to my problem but does " +
			"adding RAID drives require a reformat and rebuild of the system to " +
			"improve performance? Do you know whether the array would perform ok " +
			"afterwards or whether it would degrade under load?",
		// Doc D
		"My HP Pavilion stops working after 15 min of activity. I called our " +
			"technical department but no luck. Despite the many calls, I did not " +
			"manage to find a person with adequate knowledge to find out what is " +
			"wrong. At the end I had the brilliant idea to move it to a cooler " +
			"place and voila. No more problems.",
		// Fillers so IDF statistics have something to chew on.
		"The hotel room faced the pool. Breakfast offered fresh fruit every " +
			"morning. Would you recommend the place for families?",
		"I am building a REST service in Go. The handler panics on a nil " +
			"pointer. How should I guard the mapper against missing values?",
	}

	pipeline, err := core.Build(posts, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	stats := pipeline.Stats()
	fmt.Printf("built %s: %d posts, %d segments, %d intention clusters\n\n",
		pipeline.Method(), stats.NumDocs, stats.NumSegments, stats.NumClusters)

	fmt.Println("posts related to Doc A (the RAID performance question):")
	for rank, r := range pipeline.Related(0, 3) {
		fmt.Printf("  %d. post %d (score %.3f): %.70s...\n", rank+1, r.DocID, r.Score, posts[r.DocID])
	}

	// The pipeline keeps no prepared posts; prepare Doc A again to look
	// at its sentence units.
	doc := segment.NewDoc(posts[0])
	fmt.Printf("\nDoc A has %d sentence units.\n", doc.Len())
	// Output:
	// built IntentIntent-MR: 6 posts, 24 segments, 6 intention clusters
	//
	// posts related to Doc A (the RAID performance question):
	//   1. post 2 (score 0.056): Extra RAID drives seem to be the solution to my problem but does addin...
	//
	// Doc A has 6 sentence units.
}

// ExamplePipeline_Add folds a new post into a built pipeline without
// re-clustering.
func ExamplePipeline_Add() {
	posts := []string{
		"I have a laptop that overheats. I cleaned the fan. Why does it still shut down?",
		"My laptop shuts down after gaming. I replaced the thermal paste. What else can I check?",
		"The hotel room had a balcony. The staff were friendly. Would you stay again?",
	}
	p, err := core.Build(posts, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	id, err := p.Add("My laptop gets hot near the fan. I bought a cooling pad. Should I replace the heat sink?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("new post id:", id)
	// Output:
	// new post id: 3
}
