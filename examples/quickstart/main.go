// Quickstart: build the intention-based retrieval pipeline over a handful
// of posts and find the ones related to a reference post.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/segment"
)

func main() {
	// The four motivating posts of the paper's Fig 1 plus two fillers.
	// Doc A (index 0) asks whether partial disk use degrades performance;
	// Doc B (index 1) shares A's vocabulary (HP, RAID, drive) but asks a
	// different question; Doc C (index 2) shares little vocabulary with A
	// but asks about the same underlying concern; Doc D (index 3) is
	// unrelated.
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
}
